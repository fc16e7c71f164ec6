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
from .hypersurface import DEFAULT_SMOOTH_DEADLINE, SMOOTH, TIMEOUT, Hypersurface, is_smooth
from .hypersurface import verify_automorphism
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
REQUIRED_KEYS = ("name", "n", "d", "field", "polynomial")
# input limits, for memory: a monomial or a point has n + 2 entries, and the
# point side keeps the d polars of F, whose coefficients grow like d!
MAX_N = MAX_DEGREE = 1000


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
    if isinstance(source, (str, Path)):
        raw = read_json(source)
    else:
        raw = source
    if not isinstance(raw, dict):
        raise GaloisScopeError("an instance must be a JSON object")
    if raw.get("schema") != SCHEMA:
        raise GaloisScopeError(f"unsupported schema {raw.get('schema')!r}")
    missing = [key for key in REQUIRED_KEYS if key not in raw]
    if missing:
        raise GaloisScopeError(f"instance is missing required keys {missing}")
    for key in ("automorphisms", "points", "groups", "expect"):
        if not isinstance(raw.get(key, {}), dict):
            raise GaloisScopeError(f"instance key {key!r} must be a JSON object")
    _check_groups_and_expect(raw.get("groups", {}), raw.get("expect", {}))
    notes = raw.get("notes", [])
    _need(isinstance(notes, list) and all(isinstance(s, str) for s in notes),
          "notes must be a list of strings")
    field = parse_field(raw["field"])
    n, d = parse_count(raw["n"], "n"), parse_count(raw["d"], "degree")
    auts = {name: parse_matrix(rows, field, n + 2)
            for name, rows in raw.get("automorphisms", {}).items()}
    pts = {name: parse_point(coords, field, n + 2)
           for name, coords in raw.get("points", {}).items()}
    return Instance(
        name=raw["name"],
        n=n,
        d=d,
        conductor=field.N,
        surface=parse_surface(raw["polynomial"], n, field, degree=d),
        automorphisms=auts,
        points=pts,
        groups=raw.get("groups", {}),
        expect=raw.get("expect", {}),
        notes=raw.get("notes", []),
        raw=raw,
    )


def _need(ok, what: str, kind: str = "instance") -> None:
    if not ok:
        raise GaloisScopeError(f"{kind} value {what}")


def _check_groups_and_expect(groups: dict, expect: dict) -> None:
    """Reject nested values of the wrong shape before any section is built."""
    for name, members in groups.items():
        _need(isinstance(members, list) and members and all(isinstance(m, str) for m in members),
              f"groups.{name} must be a nonempty list of automorphism names")
    for key in ("automorphisms", "points", "counts", "rh", "abelian_check"):
        _need(isinstance(expect.get(key, {}), dict), f"expect.{key} must be a JSON object")
    for key in ("rh", "abelian_check"):
        if key in expect:
            group = expect[key].get("group")
            _need(isinstance(group, str) and group in groups,
                  f"expect.{key}.group {group!r} is not one of the instance's groups")
            _need(key == "rh" or "verdict" in expect[key], f"expect.{key} needs a verdict")
    deadline = expect.get("smooth_deadline", DEFAULT_SMOOTH_DEADLINE)
    _need(type(deadline) in (int, float) and deadline > 0,
          "expect.smooth_deadline must be a positive number")
    for name, want in expect.get("automorphisms", {}).items():
        label = f"expect.automorphisms.{name}"
        _need(isinstance(want, dict), f"{label} must be a JSON object")
        _need(isinstance(want.get("fixed_locus", {}), dict), f"{label}.fixed_locus must be an object")
        _need(isinstance(want.get("certificate", {}), (dict, type(None))),
              f"{label}.certificate must be an object or null")
        powers = want.get("detect_powers_none", [])
        _need(isinstance(powers, list) and all(type(j) is int for j in powers),
              f"{label}.detect_powers_none must be a list of integers")
        _need(isinstance(want.get("rows_include", []), list), f"{label}.rows_include must be a list")
        if "criterion" in want:
            crit = want["criterion"]
            _need(isinstance(crit, dict) and crit.get("name") in ("curve", "codim", "power")
                  and "verdict" in crit, f"{label}.criterion needs a verdict and a name: "
                  "curve, codim or power")
            _need(crit["name"] != "power" or (type(crit.get("k")) is int and crit["k"] >= 2),
                  f"{label}.criterion power needs an integer k >= 2")


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


def build_report(inst: Instance, smooth_deadline: float | None = None) -> dict:
    """Compute every section the instance's expectations mention and compare."""
    X = inst.surface
    exp = _Expect()
    expect = inst.expect
    report: dict = {
        "schema": SCHEMA,
        "kind": "report",
        "name": inst.name,
        "instance_hash": instance_hash(inst.raw),
        "n": inst.n,
        "d": inst.d,
        "field": inst.conductor,
        "polynomial": render_poly(X.F),
        "discrepancies": list(inst.notes),
    }

    smooth_expect = expect.get("smooth", "skip")
    if smooth_expect != "skip":
        deadline = smooth_deadline or expect.get("smooth_deadline", DEFAULT_SMOOTH_DEADLINE)
        sm = report["smoothness"] = smoothness_section(X, deadline)
        if smooth_expect == "optional":
            exp.check("smoothness (optional: smooth or timeout)", True,
                      sm["status"] in (SMOOTH, TIMEOUT))
        else:
            exp.check("smoothness", smooth_expect, sm["status"])
            if "singular_witness" in expect:
                exp.check("singular witness", expect["singular_witness"], sm["witness"])
    else:
        report["smoothness"] = None

    aut_reports = {}
    witnesses = {}
    for name, A in inst.automorphisms.items():
        entry, w = automorphism_section(X, A)
        if w is not None:
            witnesses[name] = w
            cert = certificate_from_automorphism(X, w)
            entry["certificate"] = certificate_json(cert)
        aut_reports[name] = entry
    report["automorphisms"] = aut_reports

    for name, aut_expect in expect.get("automorphisms", {}).items():
        entry = aut_reports.get(name)
        if entry is None:
            exp.failures.append(f"automorphism {name}: not defined in the instance")
            continue
        w = witnesses.get(name)
        for key in ("verified", "order", "scale"):
            if key in aut_expect:
                exp.check(f"{name}.{key}", aut_expect[key], entry.get(key))
        if "certificate" in aut_expect:
            got = entry.get("certificate")
            want = aut_expect["certificate"]
            if want is None or got is None:
                exp.check(f"{name}.certificate", want, got)
            else:
                for key in want:
                    exp.check(f"{name}.certificate.{key}", want[key], got.get(key))
        if "detect_powers_none" in aut_expect and w is not None:
            for j in aut_expect["detect_powers_none"]:
                wj = verify_automorphism(X, w.matrix ** j)
                cert = certificate_from_automorphism(X, wj) if wj else None
                exp.check(f"{name}^b{j} detector", None, certificate_json(cert))
        if "fixed_locus" in aut_expect and w is not None:
            rep = fixed_locus(X, w)
            fl = fixed_locus_json(rep)
            entry["fixed_locus"] = fl
            want = aut_expect["fixed_locus"]
            for key in ("total_finite", "max_dim"):
                if key in want:
                    exp.check(f"{name}.fixed_locus.{key}", want[key], fl[key])
            if "component_count" in want:
                exp.check(f"{name}.fixed_locus.component_count",
                          want["component_count"], len(fl["components"]))
        if ("rows" in aut_expect or "rows_include" in aut_expect) and w is not None:
            rows = entry["classification_rows"] = [r.row for r in classify_cyclic(X, w)]
            if "rows" in aut_expect:
                exp.check(f"{name}.rows", aut_expect["rows"], rows)
            for r in aut_expect.get("rows_include", ()):
                exp.check(f"{name}.rows includes {r}", True, r in rows)
        if "criterion" in aut_expect and w is not None:
            spec_c = aut_expect["criterion"]
            cname = spec_c["name"]
            try:
                if cname == "curve":
                    res = curve_criterion(X, w)
                elif cname == "codim":
                    res = codim_criterion(X, w)
                else:
                    res = power_criterion(X, w, spec_c["k"])
            except CriterionNotApplicable as e:  # the order is only known after verification
                exp.check(f"{name}.criterion.verdict", spec_c["verdict"], f"not applicable: {e}")
            else:
                cj = entry["criterion"] = criterion_json(res)
                exp.check(f"{name}.criterion.verdict", spec_c["verdict"], cj["verdict"])

    if "points" in expect:
        verdicts = {}
        for pname, want in expect["points"].items():
            got = verdicts[pname] = point_verdict(X, resolve_point(inst, X, pname))
            exp.check(f"point {pname}", want, got)
        report["points"] = verdicts

    if "counts" in expect:
        want = expect["counts"]
        if want.get("candidates", "coordinate") == "eigen":
            cands = eigen_candidate_points(X, list(witnesses.values()))
        else:
            cands = coordinate_points(X)
        counts = report["counts"] = counts_section(X, cands)
        exp.check("counts.inner", want.get("inner"), counts["inner"])
        exp.check("counts.outer", want.get("outer"), counts["outer"])

    closures = {gname: group_closure(resolve_group(inst, gname)) for gname in inst.groups}

    if "rh" in expect:
        want = expect["rh"]
        report["rh"] = rh_section(X, closures[want["group"]], want["group"])
        for key in ("curve_genus", "stabilizer_sum", "group_order", "quotient_genus", "fix_counts"):
            if key in want:
                exp.check(f"rh.{key}", want[key], report["rh"][key])

    if "abelian_check" in expect:
        want = expect["abelian_check"]
        G = closures[want["group"]]
        res = abelian_constraint_check(X, G)
        report["abelian_check"] = {"group": want["group"], "verdict": res.verdict,
                                   "reason": res.reason}
        exp.check("abelian_check.verdict", want["verdict"], res.verdict)

    if "discrepancies_nonempty" in expect:
        exp.check("discrepancies recorded", True, len(report["discrepancies"]) > 0)

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
    ran = 0
    while ran < count:
        for kind in ("inner", "outer"):
            if ran >= count:
                break
            n = rng.choice(list(dims))
            d = rng.choice(list(degrees))
            X, B, p, _ = normal_form_instance(rng, n, d, kind)
            label = f"{kind} n={n} d={d} #{ran}"
            w = verify_automorphism(X, B)
            if w is None:
                failures.append(f"{label}: generator failed verification")
                ran += 1
                continue
            cert = certificate_from_automorphism(X, w)
            if cert is None or cert.kind != kind:
                failures.append(f"{label}: detector missed the certificate")
                ran += 1
                continue
            if not vec_proj_eq(cert.point, p):
                failures.append(f"{label}: certificate at the wrong point")
            pv = galois_at_point(X, p)
            if pv is None or pv.kind != kind:
                failures.append(f"{label}: point-side detector disagreed")
            ran += 1
    return {"instances": ran, "failures": failures}


def run_generator(raw: dict, seed: int | None = None) -> dict:
    seed = raw.get("seed", 20240601) if seed is None else seed
    _need(type(seed) is int, "seed must be an integer", "generator")
    _need("name" in raw, "name is missing", "generator")
    count = parse_count(raw.get("count", 12), "count")
    dims, degrees = raw.get("dims", [1, 2, 3]), raw.get("degrees", [4, 5, 6, 7])
    for key, values, what, most in (("dims", dims, "n", MAX_N),
                                    ("degrees", degrees, "degree", MAX_DEGREE)):
        _need(isinstance(values, list) and values, f"{key} must be a nonempty list", "generator")
        for v in values:
            parse_count(v, what, most)
    _need(min(degrees) >= 4, "degrees must be at least 4, the least a detector takes", "generator")
    result = run_family(seed, count, dims, degrees)
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


def run_corpus(directory=None, jobs: int = 1, smooth_deadline=None, seed=None) -> list[dict]:
    """One report per file, in file-name order; a file that cannot be loaded
    or reported on gives an error entry instead (see _run_file), at any jobs."""
    paths = corpus_paths(directory)
    jobs = min(jobs, len(paths))  # the pool starts every worker at the first submit
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_file, str(p), smooth_deadline, seed) for p in paths]
            return [f.result() for f in futures]
    return [_run_file(p, smooth_deadline, seed) for p in paths]
