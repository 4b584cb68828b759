"""One workload in one fresh process: import the CLI, then run rounds of jobs.

Started by run.py with ``src`` on PYTHONPATH.  The first thing it does is time
``import se2control.cli``, so that figure holds the whole import, numpy
included.  Jobs run in a closed loop through ``se2control.cli.main(argv)``, one
at a time in this one thread.  The loop runs whole rounds of the job list
until ``--seconds`` have passed.  With ``--trace 1`` untraced and traced
rounds alternate, so the traced ones can be compared against untraced ones of
the same process.

The host's speed changes by up to 2x within seconds (a shared machine), so
a probe of speed.py is timed before every job and after the last one of each
round, and each round records the host's speed as nominal / median probe.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --jobs JOBS.json --seconds 20 --trace 0 --result OUT.json
"""

import sys
import time

_t0 = time.perf_counter()
import se2control.cli  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402


def _run_job(main, argv):
    """Returns (exit code or None, stderr text, escaped exception or None)."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code, err.getvalue(), None
    except Exception as exc:  # an exception the CLI did not turn into an exit code
        return None, err.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, err.getvalue(), None


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def run(jobs, in_dir, out_root, seconds, trace, probe_kind):
    main = se2control.cli.main
    tracer = tracing.Tracer(main) if trace else None
    templates = [[a.replace("@IN@", in_dir) for a in job["argv"]] for job in jobs]
    rounds = []
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        out_dir = os.path.join(out_root, f"round{k:03d}")
        os.mkdir(out_dir)
        argvs = [[a.replace("@OUT@", out_dir) for a in t] for t in templates]
        if traced:
            tracer.install()
        results = []
        probes = []
        for job, argv in zip(jobs, argvs):
            probes.append(speed.probe(probe_kind))
            t = time.perf_counter()
            if traced:
                tracer.job = job["id"]
                rc, err, exc = _run_job(tracer.root, argv)
            else:
                rc, err, exc = _run_job(main, argv)
            results.append((rc, time.perf_counter() - t, err, exc))
        probes.append(speed.probe(probe_kind))
        if traced:
            tracer.uninstall()
            tracer.counters["bytes_written"] += _dir_bytes(out_dir)
        host_speed = speed.PROBE_NOMINAL_S[probe_kind] / statistics.median(probes)
        rounds.append({"dir": out_dir, "traced": traced, "jobs": results, "speed": host_speed})
        k += 1
        if time.perf_counter() - start >= seconds and (not trace or k >= 2):
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rounds, peak_kib, tracer


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--jobs")
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result")
    args = p.parse_args()
    if args.setup_only:
        print(json.dumps({"setup_s": SETUP_S}))
        return 0
    with open(args.jobs) as fh:
        spec = json.load(fh)
    rounds, peak_kib, tracer = run(
        spec["jobs"], spec["in_dir"], spec["out_root"], args.seconds, bool(args.trace), spec["probe"]
    )
    result = {"setup_s": SETUP_S, "peak_rss_kib": peak_kib, "rounds": rounds}
    if tracer is not None:
        traced = [r for r in rounds if r["traced"]]
        time_scale = statistics.median(r["speed"] for r in traced)
        result["layers"] = tracing.layer_metrics(tracer, len(traced), time_scale)
        with open(os.path.join(spec["out_root"], "spans.jsonl"), "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
