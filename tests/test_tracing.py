"""The benchmark tracer (perfbench/tracing.py) rebinds package functions by
name, so a renamed or removed function fails here rather than in a traced
benchmark run.  The counts it takes from `groebner_basis` (calls, timeouts,
and basis_size, the length of what it returns) are pinned on two forms."""
import importlib.util
import sys
from pathlib import Path

from galois_scope import hypersurface
from galois_scope.corpus import parse_surface
from galois_scope.exactnum import cyclo_field

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


def traced_smoothness(text: str):
    """is_smooth's status on the plane quartic {text = 0}, and the traced
    groebner.groebner_basis counts of that one call."""
    tracer = load_tracing().Tracer()
    X = parse_surface(text, 1, cyclo_field(1))
    tracer.install()
    try:
        status = hypersurface.is_smooth(X).status
    finally:
        tracer.uninstall()
    values = tracer.layer_values()
    return status, {k: values[f"groebner.groebner_basis.{k}"]
                    for k in ("calls", "timeouts", "basis_size")}


def test_traced_exact_pass_counts():
    # the binode x0^4 + x1^4 takes the exact pass once, and basis_size reads
    # the length of what it returns: one entry per minimal leading monomial
    import sympy

    xs = sympy.symbols("x0:3")
    partials = [p for p in (sympy.diff(xs[0]**4 + xs[1]**4, x) for x in xs) if p != 0]
    minimal = len(sympy.groebner(partials, *xs, order="grevlex").exprs)
    status, counts = traced_smoothness("x0^4 + x1^4")
    assert status == hypersurface.SINGULAR
    assert counts == {"calls": 1, "timeouts": 0, "basis_size": minimal}
    # the Fermat quartic is certified by the modular pass alone
    status, counts = traced_smoothness("x0^4 + x1^4 + x2^4")
    assert status == hypersurface.SMOOTH and counts["calls"] == 0
