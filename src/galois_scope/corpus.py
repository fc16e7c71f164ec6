"""Instance files, deterministic reports, and the bundled corpus runner.

An instance is a single self-describing JSON document: dimensions, conductor,
the defining polynomial, named automorphism matrices and named points, plus
optional expectations.  A report is reproducible from the instance alone;
expectation failures are collected rather than raised so a corpus run can
present the full pass/fail matrix.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import (
    INPUT_ERRORS,
    INTERNAL_FAULTS,
    CriterionNotApplicable,
    GaloisScopeError,
    ParseError,
)
from .exactnum import cyclo_field
from .fixlocus import codim_criterion, curve_criterion, fixed_locus, power_criterion
from .galois import (
    certificate_from_automorphism,
    coordinate_points,
    count_certified_points,
    eigen_candidate_points,
    galois_at_point,
    point_verdict,
)
from .hypersurface import DEFAULT_SMOOTH_DEADLINE, SINGULAR, SMOOTH, TIMEOUT, Hypersurface
from .hypersurface import is_smooth, verify_automorphism
from .parsing import (
    int_literal,
    parse_count,
    parse_field,
    parse_matrix,
    parse_point,
    parse_polynomial,
    render_poly,
    render_scalar,
)
from .planecurves import abelian_constraint_check, classify_cyclic, group_closure, quotient_genus
from .polyring import HomogPoly
from .projlin import ProjMatrix, projective_order, vec_proj_eq

SCHEMA = "galois-scope/1"
# input limits, for memory: a monomial or a point has n + 2 entries, and the
# point side keeps the d polars of F, whose coefficients grow like d!
MAX_N = MAX_DEGREE = 1000
# instances one generator document draws: 1000 take about 4 s on a 2-core host
MAX_COUNT = 1000
STATUSES = (SMOOTH, SINGULAR, TIMEOUT)
CRITERIA = {"curve": curve_criterion, "codim": codim_criterion, "power": power_criterion}


@dataclass
class Instance:
    name: str
    n: int
    d: int
    conductor: int
    surface: Hypersurface
    automorphisms: dict[str, ProjMatrix]
    points: dict[str, tuple]
    groups: dict[str, list[str]]
    expect: dict
    notes: list[str]
    raw: dict


def read_json(path):
    """The JSON document in the file at path; an integer literal that cannot
    be read is a ParseError (see `int_literal`)."""
    return json.loads(Path(path).read_text(), parse_int=int_literal)


def instance_hash(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def load_instance(source) -> Instance:
    """Load an instance from a path or an already-parsed document."""
    raw = read_json(source) if isinstance(source, (str, Path)) else source
    if not isinstance(raw, dict):
        raise GaloisScopeError("an instance must be a JSON object")
    _check_block(raw, INSTANCE, "", "instance", raw)
    field = parse_field(raw["field"])
    n, d = parse_count(raw["n"], "n"), parse_count(raw["d"], "degree")
    auts = {name: parse_matrix(rows, field, n + 2)
            for name, rows in raw.get("automorphisms", {}).items()}
    pts = {name: parse_point(coords, field, n + 2)
           for name, coords in raw.get("points", {}).items()}
    X = parse_surface(raw["polynomial"], n, field, degree=d)
    return Instance(name=raw["name"], n=n, d=d, conductor=field.N, surface=X, automorphisms=auts,
                    points=pts, groups=raw.get("groups", {}), expect=raw.get("expect", {}),
                    notes=raw.get("notes", []), raw=raw)


def _need(ok, what: str, kind: str) -> None:
    if not ok:
        raise GaloisScopeError(f"{kind} {what}")


# ---------------------------------------------------------------------------
# the schema: one table per block of an input document

class Key(NamedTuple):
    """One key of a block.

    `shape` is the table of a nested block, a test shape(value, block, doc)
    that the value must pass, given the block that holds it and the whole
    document (`what` says the shape in an error), or None for a value that a
    parser reads.
    `read` is the key of the report section the expected value is compared
    with, or None for a value that build_report uses itself; `check`
    compares a value that is not plain equality: check(exp, label, want,
    section).  A key "*" stands for every name of a named map.
    """
    shape: object = None
    what: str = ""
    read: str | None = None
    check: object = None
    required: bool = False


def _is(*types):
    return lambda v, *_: type(v) in types  # so a bool is no int


def _one_of(*values):
    return lambda v, *_: v in values


def _list_of(kind, least=None, most=None, nonempty=False):
    return lambda v, *_: type(v) is list and (v or not nonempty) and all(
        type(x) is kind and (least is None or least <= x <= most) for x in v)


def _certificate(exp, label, want, got):
    if want is None or got is None:
        exp.check(f"{label}.certificate", want, got)
    else:
        for key in want:
            exp.check(f"{label}.certificate.{key}", want[key], got.get(key))


def _smoothness(exp, label, want, got):
    if want == "optional":
        exp.check("smoothness (optional: smooth or timeout)", True,
                  got["status"] in (SMOOTH, TIMEOUT))
    elif want != "skip":
        exp.check("smoothness", want, got["status"])


def _detectors(exp, label, want, got):
    for j in want:
        exp.check(f"{label}^b{j} detector", None, got[j])


def _rows_include(exp, label, want, got):
    for r in want:
        exp.check(f"{label}.rows includes {r}", True, r in got)


def _points(exp, label, want, got):
    for name, verdict in want.items():
        exp.check(f"point {name}", verdict, got[name])


def _automorphisms(exp, label, want, views):
    for name, block in want.items():
        if name in views:
            exp.compare(name, block, views[name], AUTOMORPHISM)
        else:
            exp.failures.append(f"automorphism {name}: not defined in the instance")


_INT = (_is(int), "an integer")
FIXED_LOCUS = {
    "total_finite": Key(_is(int, type(None)), "an integer or null", "total_finite"),
    "max_dim": Key(*_INT, "max_dim"),
    "component_count": Key(*_INT, "components", lambda exp, label, want, got:
                           exp.check(f"{label}.component_count", want, len(got))),
}
CRITERION = {
    "name": Key(lambda v, block, _: v in tuple(CRITERIA) and (v != "power" or "k" in block),
                "curve, codim, or power with a k", required=True),
    "k": Key(lambda v, block, _: type(v) is int and v >= 2 and block["name"] == "power",
             "an integer >= 2, for a power criterion"),
    "verdict": Key(_is(str), "text", "verdict", required=True),
}
AUTOMORPHISM = {
    "verified": Key(_is(bool), "true or false", "verified"),
    "order": Key(*_INT, "order"),
    "scale": Key(_is(str, type(None)), "scalar text or null", "scale"),
    "certificate": Key(_is(dict, type(None)), "an object or null", "certificate", _certificate),
    "detect_powers_none": Key(_list_of(int), "a list of integers", "detectors", _detectors),
    "fixed_locus": Key(FIXED_LOCUS, read="fixed_locus"),
    "rows": Key(_list_of(int), "a list of integers", "classification_rows"),
    "rows_include": Key(_list_of(int), "a list of integers", "classification_rows", _rows_include),
    "criterion": Key(CRITERION, read="criterion"),
}
COUNTS = {
    "candidates": Key(_one_of("coordinate", "eigen"), "coordinate or eigen"),
    "inner": Key(*_INT, "inner", required=True),
    "outer": Key(*_INT, "outer", required=True),
}
_GROUP = Key(lambda v, _, doc: type(v) is str and v in doc.get("groups", {}),
             "one of the instance's groups", required=True)
RH = {
    "group": _GROUP,
    **{key: Key(*_INT, key) for key in
       ("curve_genus", "stabilizer_sum", "group_order", "quotient_genus")},
    "fix_counts": Key(_list_of(int), "a list of integers", "fix_counts"),
}
ABELIAN_CHECK = {
    "group": _GROUP,
    "verdict": Key(_one_of("pass", "fail", "not-applicable"), "pass, fail or not-applicable",
                   "verdict", required=True),
}
EXPECT = {
    "smooth": Key(_one_of("skip", "optional", *STATUSES), "one of skip, optional, "
                  + ", ".join(STATUSES), "smoothness", _smoothness),
    "smooth_deadline": Key(lambda v, *_: type(v) in (int, float) and v > 0, "a positive number"),
    "singular_witness": Key(
        lambda v, block, _: _list_of(str)(v) and block.get("smooth") in STATUSES,
        "a list of coordinate texts, with a smooth status to check", "smoothness",
        lambda exp, label, want, got: exp.check("singular witness", want, got["witness"])),
    "automorphisms": Key({"*": Key(AUTOMORPHISM)}, read="automorphisms", check=_automorphisms),
    "points": Key({"*": Key(_one_of("inner", "outer", "none", "singular"),
                            "inner, outer, none or singular")},
                  read="points", check=_points),
    "counts": Key(COUNTS, read="counts"),
    "rh": Key(RH, read="rh"),
    "abelian_check": Key(ABELIAN_CHECK, read="abelian_check"),
    "discrepancies_nonempty": Key(_is(bool), "true or false", "discrepancies",
                                  lambda exp, label, want, got:
                                  exp.check("discrepancies recorded", want, len(got) > 0)),
}
INSTANCE = {
    "schema": Key(_one_of(SCHEMA), SCHEMA, required=True),
    "kind": Key(_one_of("instance"), "instance"),
    "name": Key(_is(str), "text", required=True),
    **{key: Key(required=True) for key in ("n", "d", "field", "polynomial")},
    **{key: Key({"*": Key()}) for key in ("automorphisms", "points")},
    "groups": Key({"*": Key(_list_of(str, nonempty=True),
                            "a nonempty list of automorphism names")}),
    "expect": Key(EXPECT),
    "notes": Key(_list_of(str), "a list of strings"),
}
GENERATOR = {
    "schema": Key(_one_of(SCHEMA), SCHEMA, required=True),
    "kind": Key(_one_of("generator"), "generator", required=True),
    "name": Key(_is(str), "text", required=True),
    "seed": Key(*_INT),
    "count": Key(lambda v, *_: type(v) is int and 1 <= v <= MAX_COUNT,
                 f"an integer from 1 to {MAX_COUNT}"),
    "dims": Key(_list_of(int, 1, MAX_N, nonempty=True), f"a nonempty list of n from 1 to {MAX_N}"),
    "degrees": Key(_list_of(int, 4, MAX_DEGREE, nonempty=True), "a nonempty list of degrees "
                   f"from 4, the least a detector takes, to {MAX_DEGREE}"),
}


def _check_block(block, table: dict, label: str, kind: str, doc: dict) -> None:
    """Reject a block of the document that is not an object, lacks a
    required key, holds a value of the wrong shape (in table order) or holds
    a key its table does not list."""
    where = f"value {label}" if label else "document"
    _need(isinstance(block, dict), f"{where} must be a JSON object", kind)
    missing = [key for key, spec in table.items() if spec.required and key not in block]
    _need(not missing, f"{where} is missing keys {missing}", kind)
    for key in block if "*" in table else [key for key in table if key in block]:
        spec, value = table.get(key) or table["*"], block[key]
        path = f"{label}.{key}" if label else key
        if isinstance(spec.shape, dict):
            _check_block(value, spec.shape, path, kind, doc)
        elif spec.shape is not None:
            _need(spec.shape(value, block, doc), f"value {path} must be {spec.what}", kind)
    unknown = [] if "*" in table else sorted(set(block) - set(table))
    _need(not unknown, f"{where} has unknown keys {unknown}", kind)


def parse_surface(text, n: int, field, degree: int | None = None) -> Hypersurface:
    """X = {F = 0} in P^(n+1) from the text of a nonconstant F; n and F's
    degree are at most MAX_N and MAX_DEGREE."""
    parse_count(n, "n", MAX_N)
    F = parse_polynomial(text, n + 2, field, degree=degree)
    if F.is_zero():
        raise ParseError(f"polynomial {text!r} is zero")
    if F.degree == 0:
        raise ParseError(f"polynomial {text!r} is constant")
    if F.degree > MAX_DEGREE:
        raise ParseError(f"degree {F.degree} exceeds the limit {MAX_DEGREE}")
    return Hypersurface(n, F.degree, F)


# ---------------------------------------------------------------------------
# name resolution, shared with the CLI

def resolve_matrix(inst: Instance | None, name: str) -> ProjMatrix:
    if inst is None or name not in inst.automorphisms:
        raise GaloisScopeError(f"automorphism {name!r} is not defined")
    return inst.automorphisms[name]


def resolve_point(inst: Instance | None, X: Hypersurface, name: str) -> tuple:
    """A named point of the instance, or the coordinate point e<i>, i < n+2."""
    if name.startswith("e") and name[1:].isdigit():
        i = int_literal(name[1:])
        if i >= X.n + 2:
            raise GaloisScopeError(f"point {name!r} needs an index below {X.n + 2}")
        return coordinate_points(X)[i]
    if inst is None or name not in inst.points:
        raise GaloisScopeError(f"point {name!r} is not defined")
    return inst.points[name]


def resolve_group(inst: Instance | None, spec: str) -> list[ProjMatrix]:
    """Generators of a named group, or else of comma-separated matrix names."""
    members = inst.groups.get(spec) if inst is not None else None
    names = members if members is not None else spec.split(",")
    return [resolve_matrix(inst, m) for m in names]


# ---------------------------------------------------------------------------
# report sections, shared with the CLI

def render_point(p) -> list[str]:
    return [render_scalar(x) for x in p]


def smoothness_section(X: Hypersurface, deadline: float) -> dict:
    res = is_smooth(X, deadline=deadline)
    return {"status": res.status,
            "witness": render_point(res.witness) if res.witness else None}


def automorphism_section(X: Hypersurface, A: ProjMatrix) -> tuple:
    """({verified, order, scale}, witness or None) for a candidate matrix."""
    w = verify_automorphism(X, A)
    return {
        "verified": w is not None,
        "order": w.order if w is not None else projective_order(A),
        "scale": render_scalar(w.scale) if w is not None else None,
    }, w


def counts_section(X: Hypersurface, candidates) -> dict:
    cr = count_certified_points(X, candidates)
    return {
        "inner": cr.inner,
        "outer": cr.outer,
        "inner_bound": cr.inner_bound,
        "outer_bound": cr.outer_bound,
        "per_point": [[render_point(p), v] for p, v in cr.per_point],
    }


def rh_section(X: Hypersurface, G, group: str) -> dict:
    rep = quotient_genus(X, G)
    return {
        "group": group,
        "curve_genus": rep.curve_genus,
        "stabilizer_sum": rep.stabilizer_sum,
        "group_order": rep.group_order,
        "quotient_genus": rep.quotient_genus,
        "fix_counts": list(rep.fix_counts),
    }


def certificate_json(cert):
    if cert is None:
        return None
    return {
        "kind": cert.kind,
        "point": render_point(cert.point),
        "group_order": cert.group_order,
        "ratio": render_scalar(cert.ratio),
        "field": cert.field.N,
    }


def fixed_locus_json(report):
    return {
        "field": report.field.N,
        "total_finite": report.total_finite_count,
        "max_dim": report.max_component_dim,
        "components": [
            {
                "eigenvalue": render_scalar(c.eigenvalue),
                "kind": c.kind,
                "dim": c.dim,
                "count": c.count,
                "points": [render_point(p) for p in c.points] if c.points else None,
            }
            for c in report.components
        ],
    }


def criterion_json(res):
    holds = {True: "holds", False: "fails", None: "indeterminate"}[res.holds]
    return {
        "name": res.name,
        "kind": res.kind,
        "verdict": holds,
        "certificate": certificate_json(res.certificate),
        "detail": res.detail,
    }


class _Expect:
    """Accumulates expectation checks against computed values."""

    def __init__(self):
        self.checked = 0
        self.failures: list[str] = []

    def check(self, label, expected, got):
        self.checked += 1
        if expected != got:
            self.failures.append(f"{label}: expected {expected!r}, got {got!r}")

    def compare(self, label: str, want: dict, got: dict, table: dict) -> None:
        """Check each expected key of a block in table order: against the
        section `got[read]` by the key's own check, key by key for a nested
        block, or else by plain equality under the label `<label>.<key>`."""
        for key, spec in table.items():
            if key not in want or spec.read is None:
                continue
            path = f"{label}.{key}" if label else key
            if spec.read not in got:  # only an unverified automorphism lacks a section
                self.failures.append(f"{path}: not computed, {label} is not verified")
            elif spec.check is not None:
                spec.check(self, label, want[key], got[spec.read])
            elif isinstance(spec.shape, dict):
                self.compare(path, want[key], got[spec.read], spec.shape)
            else:
                self.check(path, want[key], got[spec.read])


def _automorphism_view(X: Hypersurface, w, entry: dict, want: dict) -> dict:
    """What the expectations `want` on an automorphism compare with: its
    report entry, into which the sections they read are computed, the
    detector results on its powers, and a criterion that does not apply.
    An unverified automorphism (w None) has none of these sections."""
    if w is None:
        return {"certificate": None, **entry}
    entry["certificate"] = certificate_json(certificate_from_automorphism(X, w))
    view = {}
    if "detect_powers_none" in want:
        view["detectors"] = detectors = {}
        for j in want["detect_powers_none"]:
            wj = verify_automorphism(X, w.matrix ** j)
            detectors[j] = certificate_json(wj and certificate_from_automorphism(X, wj))
    if "fixed_locus" in want:
        entry["fixed_locus"] = fixed_locus_json(fixed_locus(X, w))
    if "rows" in want or "rows_include" in want:
        entry["classification_rows"] = [r.row for r in classify_cyclic(X, w)]
    if "criterion" in want:
        spec = want["criterion"]
        try:
            entry["criterion"] = criterion_json(
                CRITERIA[spec["name"]](X, w, *([spec["k"]] if "k" in spec else [])))
        except CriterionNotApplicable as e:  # the order is only known after verification
            view["criterion"] = {"verdict": f"not applicable: {e}"}
    return {**entry, **view}


def build_report(inst: Instance, smooth_deadline: float | None = None) -> dict:
    """Compute every section the instance's expectations read, then compare
    them by walking the EXPECT table."""
    X = inst.surface
    expect = inst.expect
    report: dict = {
        "schema": SCHEMA, "kind": "report", "name": inst.name,
        "instance_hash": instance_hash(inst.raw), "n": inst.n, "d": inst.d,
        "field": inst.conductor, "polynomial": render_poly(X.F),
        "discrepancies": list(inst.notes), "smoothness": None,
    }
    if expect.get("smooth", "skip") != "skip":
        deadline = smooth_deadline or expect.get("smooth_deadline", DEFAULT_SMOOTH_DEADLINE)
        report["smoothness"] = smoothness_section(X, deadline)

    report["automorphisms"], witnesses, views = {}, [], {}
    for name, A in inst.automorphisms.items():
        entry, w = automorphism_section(X, A)
        report["automorphisms"][name] = entry
        if w is not None:
            witnesses.append(w)
        views[name] = _automorphism_view(X, w, entry, expect.get("automorphisms", {}).get(name, {}))

    if "points" in expect:
        report["points"] = {pname: point_verdict(X, resolve_point(inst, X, pname))
                            for pname in expect["points"]}

    if "counts" in expect:
        eigen = expect["counts"].get("candidates") == "eigen"
        report["counts"] = counts_section(X, eigen_candidate_points(X, witnesses)
                                          if eigen else coordinate_points(X))

    read = dict.fromkeys(expect[key]["group"] for key in ("rh", "abelian_check") if key in expect)
    closures = {gname: group_closure(resolve_group(inst, gname)) for gname in read}
    if "rh" in expect:
        report["rh"] = rh_section(X, closures[expect["rh"]["group"]], expect["rh"]["group"])
    if "abelian_check" in expect:
        group = expect["abelian_check"]["group"]
        res = abelian_constraint_check(X, closures[group])
        report["abelian_check"] = {"group": group, "verdict": res.verdict, "reason": res.reason}

    exp = _Expect()
    exp.compare("", expect, {**report, "automorphisms": views}, EXPECT)
    report["expectations"] = {"checked": exp.checked, "failures": exp.failures}
    return report


# ---------------------------------------------------------------------------
# seeded normal-form family

def random_unimodular(rng: random.Random, field, size: int) -> ProjMatrix:
    """Random integer matrix of determinant +-1 (product of shears and swaps),
    so the inverse is again integral and coordinate changes stay small."""
    rows = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(size + 3):
        i, j = rng.sample(range(size), 2)
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            k, l = rng.sample(range(size), 2)
            rows[k], rows[l] = rows[l], rows[k]
    return ProjMatrix.from_entries(field, rows)


def normal_form_instance(rng: random.Random, n: int, d: int, kind: str):
    """A hypersurface in Galois normal form composed with a random change.

    Returns (X, generator matrix, expected point, change C): the generator
    is C diag(zeta, 1, .., 1) C^-1, of order d-1 or d, the point the
    transported center C e_0, and X the normal form composed with C^-1.
    """
    order = d - 1 if kind == "inner" else d
    field = cyclo_field(order)
    nv = n + 2
    terms: dict = {}
    if kind == "inner":
        terms[(d - 1, 1) + (0,) * n] = 1
    else:
        terms[(d,) + (0,) * (n + 1)] = 1
    for i in range(1, nv):
        mono = [0] * nv
        mono[i] = d
        terms[tuple(mono)] = rng.randint(1, 3)
    for _ in range(rng.randint(1, 3)):
        mono = [0] * nv
        for _ in range(d):
            mono[rng.randrange(1, nv)] += 1
        c = rng.randint(-2, 2)
        if c and tuple(mono) not in terms:
            terms[tuple(mono)] = c
    F0 = HomogPoly.from_terms(field, nv, terms, degree=d)
    A0 = ProjMatrix.diagonal(field, [field.zeta()] + [1] * (n + 1))
    C = random_unimodular(rng, field, nv)
    X = Hypersurface(n, d, F0.transform(C.inverse()))
    B = C @ A0 @ C.inverse()
    p = C.apply(tuple(field.one if i == 0 else field.zero for i in range(nv)))
    return X, B, p, C


def run_family(seed: int, count: int, dims, degrees) -> dict:
    """Detector round trip over the seeded family; both detectors must agree."""
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        kind = ("inner", "outer")[i % 2]
        n, d = rng.choice(list(dims)), rng.choice(list(degrees))
        X, B, p, _ = normal_form_instance(rng, n, d, kind)
        label = f"{kind} n={n} d={d} #{i}"
        w = verify_automorphism(X, B)
        cert = certificate_from_automorphism(X, w) if w is not None else None
        if w is None:
            failures.append(f"{label}: generator failed verification")
        elif cert is None or cert.kind != kind:
            failures.append(f"{label}: detector missed the certificate")
        else:
            if not vec_proj_eq(cert.point, p):
                failures.append(f"{label}: certificate at the wrong point")
            pv = galois_at_point(X, p)
            if pv is None or pv.kind != kind:
                failures.append(f"{label}: point-side detector disagreed")
    return {"instances": count, "failures": failures}


def run_generator(raw: dict, seed: int | None = None) -> dict:
    _check_block(raw, GENERATOR, "", "generator", raw)
    seed = raw.get("seed", 20240601) if seed is None else seed
    result = run_family(seed, raw.get("count", 12), raw.get("dims", [1, 2, 3]),
                        raw.get("degrees", [4, 5, 6, 7]))
    return {
        "schema": SCHEMA,
        "kind": "report",
        "name": raw["name"],
        "instance_hash": instance_hash(raw),
        "family": {"instances": result["instances"]},
        "expectations": {"checked": result["instances"],
                         "failures": result["failures"]},
    }


# ---------------------------------------------------------------------------
# corpus driver

def bundled_corpus_dir() -> Path:
    return Path(__file__).parent / "data"


def corpus_paths(directory=None) -> list[Path]:
    base = Path(directory) if directory else bundled_corpus_dir()
    return sorted(base.glob("*.json"))


def run_one(path, smooth_deadline=None, seed=None) -> dict:
    raw = read_json(path)
    if isinstance(raw, dict) and raw.get("kind") == "generator":
        return run_generator(raw, seed=seed)
    return build_report(load_instance(raw), smooth_deadline=smooth_deadline)


def _run_file(path, smooth_deadline, seed) -> dict:
    """run_one, or {schema, kind: "error", name, error} for a file that
    raises an input error; an internal fault still ends the run."""
    try:
        return run_one(path, smooth_deadline, seed)
    except INTERNAL_FAULTS:
        raise
    except INPUT_ERRORS as e:
        return {"schema": SCHEMA, "kind": "error", "name": Path(path).name, "error": str(e)}


def run_corpus(directory=None, smooth_deadline=None, seed=None) -> list[dict]:
    """One report per file, in file-name order; a file that cannot be loaded
    or reported on gives an error entry instead (see _run_file)."""
    return [_run_file(p, smooth_deadline, seed) for p in corpus_paths(directory)]
