"""CLI outputs held byte for byte against recorded goldens.

Every job below runs `cli.main` in-process on fixed specs; its exit code,
stdout, stderr and every file it writes must equal the bytes in
`cli_goldens.json`.  Most entries were recorded with the per-call reduction
that `system.Plant` replaced.  `plan_near` and `plan_far` were re-recorded
when the planner's final control became closed-form, `verify_open` when
the bound sweep's margin stopped rounding at 1, and `reach_open` when the
open-case report lost `diagnostics.boundary_growth`.  `reach_open` and
`reach_closed_default` were re-recorded when the reach report lost
`boundary`, `lifted` and `generator_u` (the boundary claim is stated once,
in `classification.boundary_structure`), and `plan_near` and `plan_far`
when the plan report lost `diagnostics.origin_error` (a copy of the
top-level `origin_error`), again when the planner took |theta eta| from
`ReducedSpec.length`, and again when its forward arcs became closed forms
(only `plan_far` moved), and `verify_open` and `verify_closed` when
`ball_invariance` came to report its closed-form certificate in place of a
Monte Carlo; each of those changes is stated in CHANGES.md.  `@D@` in an argument stands for the job's directory,
which holds the spec and control files and receives the outputs.  A cells
CSV (the file of `--cells-csv`, up to 75k lines) is held as the sha256 and
byte count of its bytes; every other output is held verbatim.

To re-record named entries after a stated output change, run

    PYTHONPATH=src python tests/test_cli_goldens.py --record NAME...

It rewrites only those entries.  For each output that changed it prints the
largest change of any numeric value, relative to max(1, |old|), with where
it is, and names every change that is not numeric: a string, a flag, a
message word, an added or removed key or line, a changed cells CSV digest.
"""
import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import re
import sys
import tempfile

import pytest

from se2control import cli

GOLDENS = pathlib.Path(__file__).with_name("cli_goldens.json")

SPECS = {
    "open": {"alpha": -0.8, "xi": [0.3, -0.7], "A": {"lambda": 0.6, "mu": 1.7},
             "eta1": [1.0, 0.2], "omega": [-1.5, 1.0]},
    "closed": {"alpha": 1.3, "xi": [-0.4, 0.9], "A": {"lambda": -0.5, "mu": 1.1},
               "eta1": [0.2, -0.6], "omega": [-1.0, 2.0]},
    "tz": {"alpha": 1.1, "xi": [0.5, 0.2], "A": {"lambda": 0.0, "mu": 1.4},
           "eta1": [0.7, -0.1], "omega": [-1.0, 1.0]},
    "deg": {"alpha": 0.9, "xi": [1.2, -0.3], "A": [[0.0, 0.0], [0.0, 0.0]],
            "eta1": [0.3, 0.5], "omega": [-1.0, 1.5]},
}
CONTROLS = {
    "open3": [(0.7, 0.4), (1.9, -1.2), (0.35, 1.0)],
    "closed2": [(1.25, 1.7), (0.6, -0.3)],
    "deg3": [(0.8, 1.1), (1.4, 0.0), (0.5, -0.7)],
}

# (name, argv); outputs go to @D@/<name>.* unless the job prints to stdout.
JOBS = [
    ("sim_open", ["simulate", "@D@/open.json", "--control", "@D@/open3.json",
                  "--x0=-1.3,0.4,-0.8", "--out", "@D@/sim_open.csv"]),
    ("sim_open_const", ["simulate", "@D@/open.json", "--u", "0.4", "--horizon", "2.5",
                        "--x0", "9.1,-0.2,0.3", "--samples-per-segment", "16"]),
    ("sim_closed_verify", ["simulate", "@D@/closed.json", "--control", "@D@/closed2.json",
                           "--x0", "7.5,1.5,-2.0", "--samples-per-segment", "32", "--verify",
                           "--out", "@D@/sim_closed_verify.csv"]),
    ("sim_deg", ["simulate", "@D@/deg.json", "--control", "@D@/deg3.json", "--x0", "0.5,-0.2",
                 "--out", "@D@/sim_deg.csv"]),
    ("sim_overflow", ["simulate", "@D@/open.json", "--u", "-1.0", "--horizon", "1500"]),
    ("plan_near", ["plan", "@D@/tz.json", "--v0=0.3,0.1", "--out", "@D@/plan_near.json",
                   "--traj-csv", "@D@/plan_near.csv"]),
    ("plan_far", ["plan", "@D@/tz.json", "--v0=-4.0,2.5", "--out", "@D@/plan_far.json",
                  "--traj-csv", "@D@/plan_far.csv"]),
    ("verify_open", ["verify", "@D@/open.json", "--seed", "7", "--samples", "300",
                     "--out", "@D@/verify_open.json"]),
    ("verify_deg", ["verify", "@D@/deg.json", "--seed", "3", "--samples", "300",
                    "--out", "@D@/verify_deg.json"]),
    ("verify_closed", ["verify", "@D@/closed.json", "--seed", "11", "--samples", "300",
                       "--out", "@D@/verify_closed.json"]),
    ("classify_closed", ["classify", "@D@/closed.json"]),
    ("reach_open", ["reach", "@D@/open.json", "--resolution", "0.1", "--control-grid", "5",
                    "--cells-csv", "@D@/reach_open.csv", "--out", "@D@/reach_open.json"]),
    # The default grid: its resolution is the invariant ball's radius / 200.
    ("reach_closed_default", ["reach", "@D@/closed.json", "--control-grid", "5",
                              "--cells-csv", "@D@/reach_closed_default.csv",
                              "--out", "@D@/reach_closed_default.json"]),
    # Trace zero: the forward rounds stop once the test disk's cover set is occupied.
    ("reach_tz", ["reach", "@D@/tz.json", "--control-grid", "5",
                  "--cells-csv", "@D@/reach_tz.csv", "--out", "@D@/reach_tz.json"]),
]


def digest(data: bytes) -> dict:
    """How a cells CSV is held: the sha256 and length of its bytes."""
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def run_job(argv, directory: pathlib.Path) -> dict:
    """Run one job in `directory`; exit code, stdout, stderr and the files it
    wrote, each cells CSV as its digest."""
    for name, data in SPECS.items():
        (directory / f"{name}.json").write_text(json.dumps(data))
    for name, segs in CONTROLS.items():
        payload = {"segments": [{"duration": d, "u": u} for d, u in segs]}
        (directory / f"{name}.json").write_text(json.dumps(payload))
    inputs = set(directory.iterdir())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([a.replace("@D@", str(directory)) for a in argv])
    cells = {pathlib.Path(argv[k + 1]).name for k, a in enumerate(argv) if a == "--cells-csv"}
    files = {
        p.name: digest(p.read_bytes()) if p.name in cells else p.read_text()
        for p in sorted(set(directory.iterdir()) - inputs)
    }
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


@pytest.mark.parametrize("name,argv", JOBS, ids=[name for name, _ in JOBS])
def test_cli_output_equals_recorded_bytes(name, argv, tmp_path):
    want = json.loads(GOLDENS.read_text())[name]
    assert run_job(argv, tmp_path) == want


# A decimal number in plain text (CSV fields, message values).
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _json_leaves(value, path=""):
    """(dotted path, value) for every leaf of a JSON value; an empty list or
    object is a leaf of its own, so that its removal is named."""
    if isinstance(value, (dict, list)) and not value:
        yield path, value
    elif isinstance(value, dict):
        for key in sorted(value):
            yield from _json_leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _json_leaves(item, f"{path}[{k}]")
    else:
        yield path, value


def _text_leaves(text: str):
    """("line i token j", token) for the numbers and the text between them, line by line."""
    for i, line in enumerate(text.splitlines(), 1):
        for j, token in enumerate(_NUMBER.split(line)):
            yield f"line {i} token {j}", token


def _number(x):
    """x as a float if it is a JSON number or a numeric token, else None."""
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        return None
    try:
        return float(x)
    except ValueError:  # text between numbers
        return None


def _text_changes(name: str, old: str, new: str) -> list:
    """The largest relative numeric change, and every other change, of one output.

    A numeric value that changed counts |new - old| / max(1, |old|); a leaf
    that is not a number on both sides, or that is present on one side
    only, is named.
    """
    if old == new:
        return []
    try:
        a, b = dict(_json_leaves(json.loads(old))), dict(_json_leaves(json.loads(new)))
    except json.JSONDecodeError:
        a, b = dict(_text_leaves(old)), dict(_text_leaves(new))
    worst, where, named = 0.0, None, []
    for loc in list(a) + [loc for loc in b if loc not in a]:
        if loc not in b or loc not in a:
            named.append(f"{loc} {'removed' if loc in a else 'added'}")
            continue
        x, y = a[loc], b[loc]
        if repr(x) == repr(y):
            continue
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None:
            named.append(f"{loc}: {x!r} -> {y!r}")
            continue
        rel = abs(fy - fx) / max(1.0, abs(fx))
        if where is None or rel > worst:
            worst, where = rel, loc
    lines = [f"{name}: {line}" for line in named]
    if where is not None:
        lines.insert(0, f"{name}: largest numeric change {worst:.3g} of max(1, |old|), at {where}")
    return lines


def _changes(old: dict, new: dict) -> list:
    """What differs between two recorded jobs, one line per output and per non-numeric change."""
    lines = [f"{k}: {old.get(k)!r} -> {new[k]!r}" for k in ("exit",) if old.get(k) != new[k]]
    for stream in ("stdout", "stderr"):
        lines += _text_changes(stream, old.get(stream, ""), new[stream])
    old_files, new_files = old.get("files", {}), new["files"]
    for name in sorted(set(old_files) | set(new_files)):
        if name not in new_files:
            lines.append(f"{name}: removed")
        elif name not in old_files:
            lines.append(f"{name}: added")
        elif isinstance(new_files[name], dict):  # a cells CSV digest
            if old_files[name] != new_files[name]:
                lines.append(f"{name}: {old_files[name]!r} -> {new_files[name]!r}")
        else:
            lines += _text_changes(name, old_files[name], new_files[name])
    return lines


def record(names) -> None:
    """Re-run the named jobs and rewrite only their entries in the goldens."""
    jobs = dict(JOBS)
    unknown = [n for n in names if n not in jobs]
    if unknown:
        raise SystemExit(f"unknown job(s): {', '.join(unknown)}; known: {', '.join(jobs)}")
    goldens = json.loads(GOLDENS.read_text())
    for name in names:
        with tempfile.TemporaryDirectory() as directory:
            new = run_job(jobs[name], pathlib.Path(directory))
        changes = _changes(goldens.get(name, {}), new)
        print(f"{name}: {len(changes)} change(s)" if changes else f"{name}: unchanged")
        for line in changes:
            print(f"  {line}")
        goldens[name] = new
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Re-record named CLI goldens.")
    parser.add_argument("--record", nargs="+", metavar="NAME", required=True)
    record(parser.parse_args(sys.argv[1:]).record)
