"""CLI outputs held byte for byte against goldens recorded before the plant refactor.

Every job below runs `cli.main` in-process on fixed specs; its exit code,
stdout, stderr and every file it writes must equal the bytes in
`cli_goldens.json`, which were recorded with the per-call reduction that
`system.Plant` replaced.  `@D@` in an argument stands for the job's
directory, which holds the spec and control files and receives the outputs.
"""
import contextlib
import io
import json
import pathlib

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
    ("classify_closed", ["classify", "@D@/closed.json"]),
    ("reach_open", ["reach", "@D@/open.json", "--resolution", "0.1", "--control-grid", "5",
                    "--cells-csv", "@D@/reach_open.csv", "--out", "@D@/reach_open.json"]),
]


def run_job(argv, directory: pathlib.Path) -> dict:
    """Run one job in `directory`; exit code, stdout, stderr and the files it wrote."""
    for name, data in SPECS.items():
        (directory / f"{name}.json").write_text(json.dumps(data))
    for name, segs in CONTROLS.items():
        payload = {"segments": [{"duration": d, "u": u} for d, u in segs]}
        (directory / f"{name}.json").write_text(json.dumps(payload))
    inputs = set(directory.iterdir())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([a.replace("@D@", str(directory)) for a in argv])
    files = {p.name: p.read_text() for p in sorted(set(directory.iterdir()) - inputs)}
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


@pytest.mark.parametrize("name,argv", JOBS, ids=[name for name, _ in JOBS])
def test_cli_output_equals_recorded_bytes(name, argv, tmp_path):
    want = json.loads(GOLDENS.read_text())[name]
    assert run_job(argv, tmp_path) == want
