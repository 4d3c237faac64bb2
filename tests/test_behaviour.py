"""The behaviour manifest: what each CLI command of a fixed set writes.

``tests/data/behaviour.json`` holds, for every command below, its exit code
and the SHA-256 of each file it writes, of its stdout and of its stderr.
stdout and stderr name the paths they write, so the run's temporary
directory is replaced by a fixed token before hashing. The commands run in
order in one directory, through ``cli.main`` in one process: the fits read
the seed-1 trace, and the budgets read the split fit's model.

A change that keeps behaviour leaves the manifest as it is. A change that
alters an output on purpose rewrites it, from the repository root::

    PYTHONPATH=src python tests/test_behaviour.py

and says which entries moved and why.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from wsnec import cli
from wsnec.config import sample_config

DATA = Path(__file__).resolve().parent / "data"
MANIFEST = DATA / "behaviour.json"
TASKS = DATA / "tasks-64.csv"   # the golden random-64 list (seed 7)
TMP = "<tmp>"   # stands for the run's temporary directory in argv, stdout and stderr

# name -> (argv, files it writes into the temporary directory).
COMMANDS = {
    "simulate-seed-1": (["simulate", "--config", "<tmp>/sample.ini", "--output",
                         "<tmp>/trace-1.csv", "--seed", "1"], ["trace-1.csv"]),
    "simulate-seed-7": (["simulate", "--config", "<tmp>/sample.ini", "--output",
                         "<tmp>/trace-7.csv", "--seed", "7"], ["trace-7.csv"]),
    "simulate-0.004J": (["simulate", "--config", "<tmp>/depleted.ini", "--output",
                         "<tmp>/trace-0.004J.csv"], ["trace-0.004J.csv"]),
    "sweep-50": (["sweep", "--config", "<tmp>/sample.ini", "--output",
                  "<tmp>/sweep-50.csv", "--runs", "50"], ["sweep-50.csv"]),
    "fit-split-0.7": (["fit", "--input", "<tmp>/trace-1.csv", "--output",
                       "<tmp>/model.csv", "--fit-fraction", "0.7"], ["model.csv"]),
    "fit-window-20": (["fit", "--input", "<tmp>/trace-1.csv", "--output",
                       "<tmp>/rolling-20.csv", "--window", "20"], ["rolling-20.csv"]),
    # Masks that are not a leading run of constituents, so that a column
    # pick taking the first n alphas shows.
    "fit-window-20-individual-global": (
        ["fit", "--input", "<tmp>/trace-1.csv", "--output", "<tmp>/rolling-20-ig.csv",
         "--window", "20", "--mask", "individual,global"], ["rolling-20-ig.csv"]),
    "fit-split-0.7-local-global": (
        ["fit", "--input", "<tmp>/trace-1.csv", "--output", "<tmp>/model-lg.csv",
         "--fit-fraction", "0.7", "--mask", "local,global"], ["model-lg.csv"]),
    **{f"budget-{battery}J": (["budget", "--tasks", "<tmp>/tasks-64.csv", "--model",
                               "<tmp>/model.csv", "--battery", battery, "--output",
                               f"<tmp>/schedule-{battery}J.csv"], [f"schedule-{battery}J.csv"])
       for battery in ("0.05", "0.001", "1e-07")},
    "simulate-missing-config": (["simulate", "--config", "<tmp>/missing.ini", "--output",
                                 "<tmp>/never.csv"], []),
    # Inputs rejected before anything is written: a handling price past 2^53 nJ,
    # an integer past float range and a task's pf_size past it.
    "simulate-price-past-2^53": (["simulate", "--config", "<tmp>/price.ini", "--output",
                                  "<tmp>/never.csv"], []),
    "simulate-nodes-past-float-range": (["simulate", "--config", "<tmp>/huge.ini", "--output",
                                         "<tmp>/never.csv"], []),
    "budget-pf-size-past-float-range": (["budget", "--tasks", "<tmp>/tasks-huge.csv", "--model",
                                         "<tmp>/model.csv", "--battery", "0.05", "--output",
                                         "<tmp>/never.csv"], []),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def behaviour() -> dict:
    """Run every command in a fresh temporary directory; the manifest entries."""
    sample = sample_config()
    depleted = sample.replace("initial_battery = 0.5\n", "initial_battery = 0.004\n")
    price = sample.replace("p_tx = 6e-05\n", "p_tx = 1e300\n")
    huge = sample.replace("nodes = 25\n", f"nodes = {10 ** 400}\n")
    assert sample not in (depleted, price, huge)
    tasks_huge = ("id,constituent,pf_size,importance,mandatory\n1,local,1,1.0,true\n"
                  f"2,global,1,1.0,true\n3,individual,{10 ** 400},5.0,false\n")
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "sample.ini").write_text(sample, encoding="utf-8")
        (Path(tmp) / "depleted.ini").write_text(depleted, encoding="utf-8")
        (Path(tmp) / "price.ini").write_text(price, encoding="utf-8")
        (Path(tmp) / "huge.ini").write_text(huge, encoding="utf-8")
        (Path(tmp) / "tasks-huge.csv").write_text(tasks_huge, encoding="utf-8")
        (Path(tmp) / TASKS.name).write_bytes(TASKS.read_bytes())
        for name, (argv, files) in COMMANDS.items():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main([arg.replace(TMP, tmp) for arg in argv])
            out[name] = {
                "exit": code,
                "stdout": _sha256(stdout.getvalue().replace(tmp, TMP).encode()),
                "stderr": _sha256(stderr.getvalue().replace(tmp, TMP).encode()),
                "files": {f: _sha256((Path(tmp) / f).read_bytes()) for f in files},
            }
        assert not (Path(tmp) / "never.csv").exists()   # no rejected command writes
    return out


def test_every_command_behaves_as_the_manifest_says():
    assert behaviour() == json.loads(MANIFEST.read_text(encoding="utf-8"))


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(behaviour(), indent=2) + "\n", encoding="utf-8")
