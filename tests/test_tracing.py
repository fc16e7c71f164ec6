"""The benchmark tracer (perfbench/tracing.py) rebinds package functions by
name, so a renamed or removed function fails here rather than in a traced
benchmark run."""
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracing):
    """Every attribute of the traced classes and of the package's modules."""
    owners = {id(o): o for o, *_ in tracing.SPANS + tracing.LEAVES}
    owners.update((id(m), m) for k, m in sys.modules.items()
                  if m is not None and k.split(".")[0] == "galois_scope")
    return {(id(o), k): v for o in owners.values() for k, v in vars(o).items()}


def test_every_traced_name_resolves():
    tracing = load_tracing()
    for owner, attr, *_ in tracing.SPANS + tracing.LEAVES:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} is gone"


def test_install_wraps_and_uninstall_restores():
    tracing = load_tracing()
    traced = tracing.SPANS + tracing.LEAVES
    originals = [getattr(owner, attr) for owner, attr, *_ in traced]
    before = bindings(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr, *_), fn in zip(traced, originals):
            assert getattr(owner, attr) is not fn, f"{owner.__name__}.{attr} is not wrapped"
    finally:
        tracer.uninstall()
    after = bindings(tracing)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
