"""The benchmark's tracer (perfbench/tracer.py) wraps evodial functions by
attribute name; a rename that breaks traced benchmark runs fails here."""
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_boundaries_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, *_ in tracer.BOUNDARIES
               if attr not in vars(owner)]
    assert missing == []
    assert "ProcessPoolExecutor" in vars(tracer.evolution)
