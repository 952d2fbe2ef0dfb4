"""The benchmark's tracer (benchmarks/tracing.py) times each layer by
rebinding a name in pairkey.montecarlo; a name the module no longer has only
marks its layer absent in a traced run. This makes such a rename fail here."""

import importlib.util
from pathlib import Path

from pairkey import montecarlo as mc


def load_tracing():
    """benchmarks/tracing.py as a module, read in place (standard library only)."""
    path = Path(__file__).parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_name_is_a_montecarlo_callable():
    hooks = load_tracing().HOOKS
    assert hooks
    missing = [name for name, *_ in hooks if not callable(getattr(mc, name, None))]
    assert missing == []
