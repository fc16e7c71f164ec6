"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
All equality checks are exact; the only tolerances are the stated runtime
budgets.
"""
import json
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from galois_scope.corpus import corpus_paths, normal_form_instance, run_one
from galois_scope.exactnum import cyclo_field
from galois_scope.fixlocus import curve_criterion, fixed_locus, power_criterion
from galois_scope.galois import (
    certificate_from_automorphism,
    coordinate_points,
    count_certified_points,
    eigen_candidate_points,
    galois_at_point,
    galois_count_bounds,
)
from galois_scope.hypersurface import Hypersurface, is_smooth, verify_automorphism
from galois_scope.planecurves import group_closure, plane_curve_genus, quotient_genus
from galois_scope.polyring import HomogPoly
from galois_scope.projlin import ProjMatrix, vec_proj_eq, vector

Q = cyclo_field(1)


@contextmanager
def criterion(label, budget=None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL ({time.monotonic() - t0:.2f}s)")
        raise
    elapsed = time.monotonic() - t0
    print(f"{label}: PASS ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"{label} exceeded its {budget}s budget"


def poly(field, nvars, terms):
    return HomogPoly.from_terms(field, nvars, terms)


@pytest.fixture(scope="module")
def corpus_reports():
    return {r["name"]: r for r in (run_one(p) for p in corpus_paths())}


def test_ac1_fermat_quotient_reproduction():
    with criterion("AC1 fermat quartic quotient data", budget=1.0):
        F8 = cyclo_field(8)
        X = Hypersurface(1, 4, poly(F8, 3, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}))
        assert plane_curve_genus(4) == 3
        assert 2 - 2 * plane_curve_genus(4) == -4
        G = group_closure([
            ProjMatrix.diagonal(F8, [-1, 1, 1]),
            ProjMatrix.diagonal(F8, [1, -1, 1]),
        ])
        assert G.order == 4
        rep = quotient_genus(X, G)
        assert rep.stabilizer_sum == 12
        assert rep.quotient_genus == 0
        assert rep.fix_counts == (4, 4, 4)


def test_ac2_sextic_negative_control():
    with criterion("AC2 sextic with order-5 symmetry has no Galois point", budget=5.0):
        F5 = cyclo_field(5)
        X = Hypersurface(1, 6, poly(F5, 3, {
            (0, 0, 6): 1, (5, 0, 1): 1, (0, 5, 1): 1, (3, 3, 0): 1}))
        A = ProjMatrix.diagonal(F5, [F5.zeta(3), F5.zeta(2), 1])
        w = verify_automorphism(X, A)
        assert w is not None and w.scale == 1
        assert w.order == 5
        for j in range(1, 5):
            wj = verify_automorphism(X, A ** j)
            assert wj is not None
            assert certificate_from_automorphism(X, wj) is None
        for p in coordinate_points(X):
            assert galois_at_point(X, p) is None
        from galois_scope.planecurves import classify_cyclic

        rows = [r.row for r in classify_cyclic(X, w)]
        assert rows == [4]


def test_ac3_degree11_surface_orders_and_counts():
    with criterion("AC3 degree-11 surface has orders 110 and 495 but zero certificates", budget=10.0):
        F495 = cyclo_field(495)
        X = Hypersurface(2, 11, poly(F495, 4, {
            (11, 0, 0, 0): 1, (6, 5, 0, 0): 1, (1, 10, 0, 0): 1,
            (0, 0, 10, 1): 1, (0, 0, 1, 10): 1}))
        z55 = F495.zeta(9)  # zeta_55
        A = ProjMatrix.from_entries(F495, [
            [z55 ** -10, F495.zero, F495.zero, F495.zero],
            [F495.zero, z55, F495.zero, F495.zero],
            [F495.zero, F495.zero, F495.zero, F495.one],
            [F495.zero, F495.zero, F495.one, F495.zero],
        ])
        wA = verify_automorphism(X, A)
        assert wA is not None and wA.order == 110 == (X.d - 1) * X.d
        z9 = F495.zeta(55)  # zeta_9
        B = ProjMatrix.diagonal(F495, [z55 ** -10, z55, z9, z9 ** -1])
        wB = verify_automorphism(X, B)
        assert wB is not None and wB.order == 495 == (X.d - 2) * (X.d - 1) * X.d // 2
        report = count_certified_points(X, eigen_candidate_points(X, [wA, wB]))
        assert report.inner == 0 and report.outer == 0


def test_ac4_detector_round_trip_family():
    with criterion("AC4 detector round trip on 200 seeded normal forms"):
        rng = random.Random(424242)
        agreements = 0
        total = 0
        while total < 200:
            kind = "inner" if total % 2 == 0 else "outer"
            n = rng.choice([1, 2, 3])
            d = rng.choice([4, 5, 6, 7])
            X, B, p, _ = normal_form_instance(rng, n, d, kind)
            total += 1
            w = verify_automorphism(X, B)
            assert w is not None
            cert = certificate_from_automorphism(X, w)
            assert cert is not None and cert.kind == kind
            target = cyclo_field(math.lcm(cert.field.N, X.field.N))
            assert vec_proj_eq(vector(target, cert.point), vector(target, p))
            pv = galois_at_point(X, p)
            assert pv is not None and pv.kind == kind
            agreements += 1
        assert agreements == total == 200


def _smooth_plane_curve_instances():
    """>= 50 smooth plane-curve instances with an order d-1 or d automorphism."""
    rng = random.Random(515151)
    out = []
    # normal-form positives, both kinds
    made = 0
    while made < 44:
        kind = "inner" if made % 2 == 0 else "outer"
        d = rng.choice([4, 5])
        X, B, _, C = normal_form_instance(rng, 1, d, kind)
        if is_smooth(X).status != "certified_smooth":
            continue
        out.append((X, B, C))
        made += 1
    # negative family: order d-1 with exactly two fixed points
    for d in (6, 8):
        field = cyclo_field(d - 1)
        half = d // 2
        X = Hypersurface(1, d, poly(field, 3, {
            (0, 0, d): 1, (d - 1, 0, 1): 1, (0, d - 1, 1): 1, (half, half, 0): 1}))
        A = ProjMatrix.diagonal(field, [field.zeta(half), field.zeta(half - 1), 1])
        out.append((X, A, None))
    # negative family: order d with empty fixed locus
    F5 = cyclo_field(5)
    for (a, b) in ((1, 1), (2, 2)):
        X = Hypersurface(1, 5, poly(F5, 3, {
            (5, 0, 0): 1, (0, 5, 0): 1, (0, 0, 5): 1, (5 - a - b, a, b): 1}))
        A = ProjMatrix.diagonal(F5, [F5.zeta(1), F5.zeta(2), 1])
        out.append((X, A, None))
    # positive: Fermat curves with the standard order-d generator
    for d, N in ((4, 4), (5, 5), (6, 6), (7, 7)):
        field = cyclo_field(N)
        X = Hypersurface(1, d, poly(field, 3, {(d, 0, 0): 1, (0, d, 0): 1, (0, 0, d): 1}))
        A = ProjMatrix.diagonal(field, [field.zeta(), 1, 1])
        out.append((X, A, None))
    # positive: inner normal forms with a full fixed line
    F3 = cyclo_field(3)
    out.append((Hypersurface(1, 4, poly(F3, 3, {(3, 1, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})),
                ProjMatrix.diagonal(F3, [F3.zeta(), 1, 1]), None))
    return out


def test_ac5_curve_criterion_equivalence():
    with criterion("AC5 curve criterion == certificate existence on 50+ curves"):
        instances = _smooth_plane_curve_instances()
        assert len(instances) >= 50
        for X, A, change in instances:
            assert is_smooth(X).status == "certified_smooth"
            w = verify_automorphism(X, A)
            assert w is not None
            res = curve_criterion(X, w, witness_matrix=change)
            assert res.holds is not None  # always decidable on curves
            assert res.holds == (res.certificate is not None)
            if res.certificate is not None:
                assert res.certificate.kind == res.kind


def test_ac6_count_bound_audit(corpus_reports):
    with criterion("AC6 certified counts stay inside the global bounds"):
        audited = 0
        for name, rep in corpus_reports.items():
            if "counts" not in rep:
                continue
            n, d = rep["n"], rep["d"]
            inner_bound, outer_bound = galois_count_bounds(n, d)
            inner, outer = rep["counts"]["inner"], rep["counts"]["outer"]
            assert inner <= inner_bound, name
            assert outer <= outer_bound, name
            if n == 1 and d == 4:
                assert inner in (0, 1, 4), name
            if n == 1:
                assert outer in (0, 1, 3), name
                if d >= 5:
                    assert inner <= 1, name
            audited += 1
        assert audited >= 6


def test_ac7_smoothness_kernel():
    with criterion("AC7 smoothness certificates and honest timeouts"):
        budgets = 60.0
        t0 = time.monotonic()
        fermat = Hypersurface(1, 4, poly(Q, 3, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}))
        assert is_smooth(fermat, deadline=budgets).status == "certified_smooth"
        assert time.monotonic() - t0 < budgets

        t0 = time.monotonic()
        binode = Hypersurface(1, 4, poly(Q, 3, {(4, 0, 0): 1, (0, 4, 0): 1}))
        res = is_smooth(binode, deadline=budgets)
        assert res.status == "certified_singular"
        assert [x.rational() for x in res.witness] == [0, 0, 1]
        assert time.monotonic() - t0 < budgets

        t0 = time.monotonic()
        F3 = cyclo_field(3)
        quartic_surface = Hypersurface(2, 4, poly(F3, 4, {
            (3, 0, 1, 0): 1, (0, 3, 0, 1): 1, (0, 0, 4, 0): 1, (0, 0, 0, 4): 1}))
        assert is_smooth(quartic_surface, deadline=budgets).status == "certified_smooth"
        assert time.monotonic() - t0 < budgets

        t0 = time.monotonic()
        F5 = cyclo_field(5)
        sextic = Hypersurface(1, 6, poly(F5, 3, {
            (0, 0, 6): 1, (5, 0, 1): 1, (0, 5, 1): 1, (3, 3, 0): 1}))
        assert is_smooth(sextic, deadline=budgets).status == "certified_smooth"
        assert time.monotonic() - t0 < budgets

        # degree 30: a timeout is accepted, a misclassification is not
        d30 = Hypersurface(1, 30, poly(Q, 3, {
            (30, 0, 0): 1, (0, 30, 0): 1, (0, 0, 30): 1, (5, 6, 19): 1}))
        res = is_smooth(d30, deadline=10.0, allow_large=True)
        assert res.status in ("certified_smooth", "timeout")


def test_ac8_power_criterion_instance():
    with criterion("AC8 order-8 symmetry on the quintic surface descends to an inner point"):
        F8 = cyclo_field(8)
        X = Hypersurface(2, 5, poly(F8, 4, {
            (4, 1, 0, 0): 1, (0, 4, 1, 0): 1, (0, 0, 5, 0): 1, (0, 0, 0, 5): 1}))
        w = verify_automorphism(X, ProjMatrix.diagonal(F8, [F8.zeta(), -1, 1, 1]))
        assert w is not None and w.order == 8 == 2 * (X.d - 1)
        rep = fixed_locus(X, w)
        assert rep.total_finite_count == 7
        res = power_criterion(X, w, k=2)
        assert res.holds is True
        cert = res.certificate
        assert cert is not None and cert.kind == "inner"
        e0 = (cert.field.one,) + (cert.field.zero,) * 3
        assert vec_proj_eq(cert.point, e0)
        assert cert.group_order == 4


def test_ac9_recorded_discrepancy(corpus_reports):
    with criterion("AC9 quartic-surface fixed locus recorded with its discrepancy flag"):
        rep = corpus_reports["exa4"]
        fl = rep["automorphisms"]["g"]["fixed_locus"]
        assert fl["total_finite"] == 6
        assert fl["max_dim"] == 0
        assert len(fl["components"]) == 3
        assert rep["discrepancies"], "the documented claim must be recorded"
        assert any("smooth rational curve" in note for note in rep["discrepancies"])
        assert rep["expectations"]["failures"] == []


def test_corpus_reports_match_golden(corpus_reports):
    # every bundled report, byte for byte as pinned in tests/golden/corpus
    golden = Path(__file__).parent / "golden" / "corpus"
    assert sorted(corpus_reports) == sorted(p.stem for p in golden.glob("*.json"))
    for name, rep in corpus_reports.items():
        text = json.dumps(rep, indent=2, sort_keys=True) + "\n"
        assert text == (golden / f"{name}.json").read_text(), name
