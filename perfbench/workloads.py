"""The three verdict workloads: instance populations, verdict calls and references.

Each workload is a pinned population of instances, built in set-up, plus one
function that produces a verdict for an instance (the timed call) and one that
checks a verdict against a reference that does not come from the library.
The benchmark's ``--seed`` orders the population inside every pass; the
population itself is pinned (see README.md for why).
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# library functions are called through their modules so that a traced run,
# which rebinds module attributes, sees every call
from galois_scope import corpus, exactnum, galois, hypersurface, polyring

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

DETECT_POPULATION = "detect-424242"
DETECT_DIMS = (1, 2, 3)
DETECT_DEGREES = (4, 5, 6, 7)
# the key is the workload's name, fixed before any instance was timed; every
# (n, d) cell gets the same number of draws of each kind
SMOOTH_POPULATION = "smooth"
SMOOTH_CELLS = ((1, 4), (1, 5), (1, 6), (2, 4))  # plane curves d = 4, 5, 6; quartic surfaces
SMOOTH_DRAWS = 1
# the singular plane quartic x0^4 + x1^4 of the acceptance suite's smoothness
# criterion (AC7): its singular point (0:0:1) is found, so the witness check runs
SMOOTH_WITNESS_CASE = {(4, 0, 0): 1, (0, 4, 0): 1}
SMOOTH_DEADLINE_S = 60.0
CORPUS_EXCLUDED = ("normal-form-family.json",)  # generator file, duplicates detect


@dataclass
class Instance:
    """One unit of work with the facts a per-instance row reports."""

    ident: str
    n: int
    d: int
    conductor: int
    terms: int
    kind: str
    payload: dict = field(repr=False)


@dataclass
class Outcome:
    """What one timed verdict call produced."""

    verdict: str
    decided: bool
    data: dict = field(default_factory=dict, repr=False)


def _exact(x) -> Fraction:
    """A field element that must be rational, read from its power-basis coordinates."""
    coeffs = x.coeffs
    if any(c != 0 for c in coeffs[1:]):
        raise ValueError(f"expected a rational value, got {x!r}")
    return Fraction(coeffs[0])


def _proportional(u, v) -> bool:
    if len(u) != len(v) or not any(u) or not any(v):
        return False
    i = next(k for k, x in enumerate(u) if x)
    if not v[i]:
        return False
    r = v[i] / u[i]
    return all(x * r == y for x, y in zip(u, v))


# ---------------------------------------------------------------------------
# detect: both Galois-point detectors on seeded normal forms

def build_detect() -> list:
    pairs = []
    for n in DETECT_DIMS:
        for d in DETECT_DEGREES:
            pair = []
            for kind in ("inner", "outer"):
                rng = random.Random(f"{DETECT_POPULATION}:{n}:{d}:{kind}")
                X, B, p, C = corpus.normal_form_instance(rng, n, d, kind)
                centre = tuple(_exact(C.rows[i][0]) for i in range(n + 2))
                pair.append(Instance(
                    f"{kind}-n{n}-d{d}", n, d, X.field.N, len(X.F.terms), kind,
                    {"X": X, "B": B, "p": p, "centre": centre,
                     "order": d - 1 if kind == "inner" else d}))
            pairs.append(pair)
    return pairs


def run_detect(inst: Instance) -> Outcome:
    X = inst.payload["X"]
    w = hypersurface.verify_automorphism(X, inst.payload["B"])
    if w is None:
        return Outcome("unverified", True)
    cert = galois.certificate_from_automorphism(X, w)
    pv = galois.galois_at_point(X, inst.payload["p"])
    data = {"order": w.order,
            "cert_kind": cert.kind if cert else None,
            "cert_order": cert.group_order if cert else None,
            "cert_point": cert.point if cert else None,
            "point_kind": pv.kind if pv else None}
    verdict = f"{data['cert_kind'] or 'none'}/{data['point_kind'] or 'none'}"
    return Outcome(verdict, True, data)


def check_detect(inst: Instance, out: Outcome, ref: str) -> bool:
    """The construction is the reference: kind, group order and transported centre."""
    data = out.data
    if not data or data["order"] != inst.payload["order"]:
        return False
    if data["cert_kind"] != ref or data["point_kind"] != ref:
        return False
    if data["cert_order"] != inst.payload["order"]:
        return False
    point = tuple(_exact(x) for x in data["cert_point"])
    return _proportional(inst.payload["centre"], point)


def detect_reference(inst: Instance) -> str:
    return inst.payload.get("reference_kind", inst.kind)


def corrupt_detect(inst: Instance) -> None:
    inst.payload["reference_kind"] = "outer" if inst.kind == "inner" else "inner"


# ---------------------------------------------------------------------------
# smooth: Jacobian smoothness certificate under a fixed deadline

def build_smooth() -> list:
    pairs = []
    for n, d in SMOOTH_CELLS:
        for j in range(SMOOTH_DRAWS):
            pair = []
            for kind in ("inner", "outer"):
                rng = random.Random(f"{SMOOTH_POPULATION}:{n}:{d}:{kind}:{j}")
                X, _, _, _ = corpus.normal_form_instance(rng, n, d, kind)
                pair.append(Instance(
                    f"{kind}-n{n}-d{d}-{j}", n, d, X.field.N, len(X.F.terms), kind,
                    {"F": X.F}))
            pairs.append(pair)
    F = polyring.HomogPoly.from_terms(exactnum.cyclo_field(1), 3, SMOOTH_WITNESS_CASE, degree=4)
    pairs.append([Instance("ac7-binode", 1, 4, 1, len(F.terms), "singular", {"F": F})])
    return pairs


def run_smooth(inst: Instance) -> Outcome:
    F = inst.payload["F"]
    # a fresh Hypersurface per call: is_smooth caches its result on the object
    X = hypersurface.Hypersurface(inst.n, inst.d, F)
    res = hypersurface.is_smooth(X, deadline=SMOOTH_DEADLINE_S)
    witness = None if res.witness is None else tuple(_exact(x) for x in res.witness)
    return Outcome(res.status, res.status != "timeout", {"witness": witness})


def _sympy_form(inst: Instance):
    import sympy

    xs = sympy.symbols(f"x0:{inst.n + 2}")
    F = sympy.Integer(0)
    for mono, c in inst.payload["F"].terms.items():
        F += sympy.Rational(_exact(c)) * sympy.prod([x ** e for x, e in zip(xs, mono)])
    return xs, F


def smooth_reference(inst: Instance) -> str:
    """Verdict from sympy's Groebner basis of the Jacobian ideal.

    The coefficients are rational (integral normal form, unimodular change),
    and a reduced Groebner basis does not change under field extension, so
    the basis over QQ decides smoothness over Q(zeta_N) as well: X is smooth
    exactly when every variable has a pure power among the leading terms.
    """
    import sympy

    xs, F = _sympy_form(inst)
    partials = [g for g in (sympy.diff(F, x) for x in xs) if g != 0]
    G = sympy.groebner(partials, *xs, order="grevlex", domain=sympy.QQ)
    smooth = G.is_zero_dimensional != inst.payload.get("corrupt", False)
    return "certified_smooth" if smooth else "certified_singular"


def corrupt_smooth(inst: Instance) -> None:
    inst.payload["corrupt"] = True


def check_smooth(inst: Instance, out: Outcome, ref: str) -> bool:
    if out.verdict != ref:
        return False
    witness = out.data.get("witness")
    if witness is None:
        return True
    import sympy

    xs, F = _sympy_form(inst)
    at = dict(zip(xs, (sympy.Rational(c) for c in witness)))
    return any(witness) and all(sympy.diff(F, x).subs(at) == 0 for x in xs)


# ---------------------------------------------------------------------------
# corpus: the bundled hand-written instances against their frozen expectations

def build_corpus() -> list:
    out = []
    for path in corpus.corpus_paths():
        if path.name in CORPUS_EXCLUDED:
            continue
        inst = corpus.load_instance(path)
        out.append([Instance(inst.name, inst.n, inst.d, inst.conductor,
                             len(inst.surface.F.terms), "corpus", {"path": path})])
    return out


def corrupt_corpus(inst: Instance) -> None:
    """Point the instance at a copy whose frozen count expectation is off by one."""
    path = inst.payload["path"]
    raw = json.loads(path.read_text())
    raw["expect"]["counts"]["inner"] += 1
    target = OUT_DIR / "corrupt" / path.name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(raw))
    inst.payload["path"] = target


def run_corpus(inst: Instance) -> Outcome:
    report = corpus.run_one(inst.payload["path"])
    failures = report["expectations"]["failures"]
    smooth = report.get("smoothness") or {}
    decided = smooth.get("status") != "timeout"
    return Outcome("pass" if not failures else f"fail:{len(failures)}", decided,
                   {"failures": failures})


def check_corpus(inst: Instance, out: Outcome, ref: str) -> bool:
    return out.data.get("failures") == []


def corpus_reference(inst: Instance) -> str:
    return "expect"


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """How to build a population, run a verdict, and check it."""

    build: object
    run: object
    reference: object
    check: object
    corrupt: object


WORKLOADS = {
    "detect": Workload(build_detect, run_detect, detect_reference, check_detect,
                       corrupt_detect),
    "smooth": Workload(build_smooth, run_smooth, smooth_reference, check_smooth,
                       corrupt_smooth),
    "corpus": Workload(build_corpus, run_corpus, corpus_reference, check_corpus,
                       corrupt_corpus),
}
