#!/usr/bin/env python3
"""The se2control benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload reach_mix --seed 1 --seconds 30 --trace 0

Writes the seeded inputs under perfbench/_work/<workload>/, times the import
of se2control.cli in fresh processes, runs the workload's rounds of CLI jobs
in one fresh worker process, checks the first round's outputs with
checks.py, checks that every later round wrote the same bytes, and prints a
facts line and then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones of the traced rounds plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import checks
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5  # fresh-process imports per run; setup_s is their median
WORKER_TIMEOUT_S = 150


def _worker(args: list) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        check=True,
    )


def _src_lines() -> int:
    n = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    n += sum(1 for _ in fh)
    return n


def _commit() -> str:
    """HEAD of the git checkout at ROOT, read from its .git directory, or "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def facts() -> dict:
    import numpy

    return {
        "src_lines": _src_lines(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "commit": _commit(),
    }


def _same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def evaluate(jobs: list, in_dir: str, rounds: list) -> tuple:
    """(attempted, failed, errors) over all rounds."""
    errors = []
    attempted = failed = 0
    for r in rounds:
        for job, (rc, _, err, exc) in zip(jobs, r["jobs"]):
            attempted += 1
            if not checks.job_succeeded(job, rc, err, exc):
                failed += 1
                if job["kind"] != "fault":
                    errors.append(f"{job['id']}: exit {rc} {exc or err.strip()}")
    first = rounds[0]["dir"]
    for job, (rc, _, err, exc) in zip(jobs, rounds[0]["jobs"]):
        if job["kind"] != "fault" and checks.job_succeeded(job, rc, err, exc):
            errors += [f"{job['id']}: {e}" for e in checks.check_job(job, in_dir, first)]
    names = sorted(os.listdir(first))
    for r in rounds[1:]:
        if sorted(os.listdir(r["dir"])) != names or not all(
            _same_bytes(os.path.join(first, n), os.path.join(r["dir"], n)) for n in names
        ):
            errors.append(f"{os.path.basename(r['dir'])} wrote other outputs than round000")
    return attempted, failed, errors


def end_to_end(result: dict, setups: list, completed: int) -> dict:
    """Job times scaled to the host's fast state (speed.py); set-up time as measured.

    Importing is mostly file reads and unmarshalling, which the host's slow
    state does not slow the way it slows the probe, so it is not scaled.
    """
    times = [j[1] * r["speed"] for r in result["rounds"] for j in r["jobs"]]
    return {
        "jobs_per_s": {"value": completed / sum(times), "unit": "jobs/s"},
        "job_p50_ms": {"value": 1e3 * statistics.median(times), "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_kib"] / 1024.0, "unit": "MiB"},
    }


def per_layer(result: dict) -> dict:
    rounds = result["rounds"]
    plain = statistics.median(r["speed"] * sum(j[1] for j in r["jobs"]) for r in rounds if not r["traced"])
    traced = statistics.median(r["speed"] * sum(j[1] for j in r["jobs"]) for r in rounds if r["traced"])
    out = {name: {"value": v, "unit": u} for name, (v, u) in result["layers"].items()}
    out["trace.overhead_pct"] = {"value": 100.0 * (traced / plain - 1.0), "unit": "%"}
    return out


def raw_figures(result: dict, completed: int) -> dict:
    """Job figures in unscaled wall time, and the host's speed, beside the metrics."""
    times = [j[1] for r in result["rounds"] for j in r["jobs"]]
    return {
        "raw_job_p50_ms": 1e3 * statistics.median(times),
        "raw_jobs_per_s": completed / sum(times),
        "host_speed": statistics.median(r["speed"] for r in result["rounds"]),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "se2control", "cli.py")):
        print(f"error: no program to measure: {SRC}/se2control/cli.py is missing", file=sys.stderr)
        return 2

    work = os.path.join(HERE, "_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    in_dir = os.path.join(work, "inputs")
    out_root = os.path.join(work, "rounds")
    os.makedirs(out_root)
    jobs = gen.generate(args.workload, args.seed, in_dir)
    jobs_file = os.path.join(work, "jobs.json")
    with open(jobs_file, "w") as fh:
        json.dump(
            {"in_dir": in_dir, "out_root": out_root, "probe": gen.PROBE[args.workload], "jobs": jobs},
            fh,
            indent=1,
        )

    result_file = os.path.join(work, "worker.json")
    try:
        setups = [json.loads(_worker(["--setup-only"]).stdout)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        _worker([
            "--jobs", jobs_file, "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--result", result_file,
        ])
    except subprocess.CalledProcessError as exc:
        print(f"error: worker exited {exc.returncode}:\n{exc.stderr}", file=sys.stderr)
        return 1
    with open(result_file) as fh:
        result = json.load(fh)
    setups.append(result["setup_s"])

    attempted, failed, errors = evaluate(jobs, in_dir, result["rounds"])
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    metrics = per_layer(result) if args.trace else end_to_end(result, setups, attempted - failed)
    info = facts()
    info.update(raw_figures(result, attempted - failed), workload=args.workload, seed=args.seed, rounds=len(result["rounds"]))
    with open(os.path.join(work, "facts.json"), "w") as fh:
        json.dump(info, fh, indent=1)
    print("facts " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
