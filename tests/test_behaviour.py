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
    **{f"budget-{battery}J": (["budget", "--tasks", "<tmp>/tasks-64.csv", "--model",
                               "<tmp>/model.csv", "--battery", battery, "--output",
                               f"<tmp>/schedule-{battery}J.csv"], [f"schedule-{battery}J.csv"])
       for battery in ("0.05", "0.001", "1e-07")},
    "simulate-missing-config": (["simulate", "--config", "<tmp>/missing.ini", "--output",
                                 "<tmp>/never.csv"], []),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def behaviour() -> dict:
    """Run every command in a fresh temporary directory; the manifest entries."""
    sample = sample_config()
    depleted = sample.replace("initial_battery = 0.5\n", "initial_battery = 0.004\n")
    assert depleted != sample
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "sample.ini").write_text(sample, encoding="utf-8")
        (Path(tmp) / "depleted.ini").write_text(depleted, encoding="utf-8")
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
    return out


def test_every_command_behaves_as_the_manifest_says():
    assert behaviour() == json.loads(MANIFEST.read_text(encoding="utf-8"))


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(behaviour(), indent=2) + "\n", encoding="utf-8")
