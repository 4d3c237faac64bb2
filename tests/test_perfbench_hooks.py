"""Every function the benchmark's tracer hooks must still exist.

The tracer reports a hook whose target is gone as absent and reads its
metrics as zero, so a renamed or removed function would pass the benchmark
silently; this test fails instead.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_hook_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = SimpleNamespace(**{module: importlib.import_module(f"wsnec.{module}")
                                 for _, module, _, _ in tracer.HOOKS})
    assert tracer.Tracer(modules).absent == []
