"""The benchmark's layer tracer still finds every name it wraps.

perfbench/tracing.py times each layer by replacing program functions and
methods by name from outside the program; a renamed target drops its layer
from the per-layer report without an error.  These tests fail instead.
"""

import importlib.util
from pathlib import Path

from enclavesim import sim

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_target_resolves_to_a_callable():
    tracing = _load_tracing()
    missing = [
        f"{owner}.{attr}"
        for _, owner, attr in tracing.TARGETS
        if not callable(getattr(tracing.resolve(owner), attr, None))
    ]
    assert not missing, f"tracing targets gone from the program: {missing}"


def test_every_model_is_a_class():
    # the benchmark times model construction by wrapping each __init__
    assert all(isinstance(cls, type) for cls in sim.MODEL_CLASSES.values())
