"""Per-layer tracing of galois_scope from outside the package.

``Tracer.install`` replaces the traced functions with wrappers, on their class
or defining module and on every galois_scope module that imported them by
name; ``uninstall`` puts the originals back.  Calls at a layer boundary are
recorded as spans (id, parent id, name, start, end).  Hot leaf arithmetic is
not given spans: its calls, dense calls and self time are summed per parent
span.  Self time is a call's duration minus the time of the traced calls
inside it.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

from galois_scope import corpus, exactnum, fixlocus, galois, groebner, hypersurface
from galois_scope import parsing, planecurves, polyring, projlin


def _rational(x) -> bool:
    """True for ints, Fractions and rational-tagged field elements."""
    if not isinstance(x, exactnum.CycloNum):
        return True
    return x.tag is not None and x.tag[1] == 0


def _dense_mul(args) -> bool:
    a, b = args[0], args[1]
    if _rational(a) or _rational(b):
        return False
    return not (a.tag is not None and b.tag is not None)


def _dense_inverse(args) -> bool:
    return args[0].tag is None


def _none_rejected(stat, args, result):
    if result is None:
        stat["rejected"] += 1


def _transform_terms(stat, args, result):
    stat["terms_in"] += len(args[0].terms)
    stat["terms_out"] += len(result.terms)


def _basis(stat, args, result):
    if result is None:
        stat["timeouts"] += 1
    else:
        stat["basis_size"] += len(result)


def _nonzero(stat, args, result):
    if result:
        stat["nonzero"] += 1


def _general(stat, args, result):
    A = args[0]
    if not A.is_diagonal() and A.monomial_permutation() is None:
        stat["general"] += 1


# (owner, attribute, layer name, extra-stat hook); owners are classes or modules
SPANS = [
    (exactnum, "embed_lift", "exactnum.embed_lift", None),
    (polyring.HomogPoly, "transform", "polyring.transform", _transform_terms),
    (polyring.HomogPoly, "restrict", "polyring.restrict", None),
    (polyring.HomogPoly, "divide_by_linear", "polyring.divide_by_linear", _none_rejected),
    (polyring.HomogPoly, "eval_at", "polyring.eval_at", None),
    (groebner, "groebner_basis", "groebner.groebner_basis", _basis),
    (groebner, "normal_form", "groebner.normal_form", _nonzero),
    (groebner, "s_polynomial", "groebner.s_polynomial", None),
    (hypersurface, "is_smooth", "hypersurface.is_smooth", None),
    (hypersurface, "verify_automorphism", "hypersurface.verify_automorphism", _none_rejected),
    (hypersurface, "multiplicity_at_point", "hypersurface.multiplicity_at_point", None),
    (projlin, "homology_form", "projlin.homology_form", _general),
    (projlin, "projective_order", "projlin.projective_order", None),
    (projlin, "eigen_structure", "projlin.eigen_structure", None),
    (galois, "certificate_from_automorphism", "galois.certificate_from_automorphism", None),
    (galois, "galois_at_point", "galois.galois_at_point", _none_rejected),
    (galois, "count_certified_points", "galois.count_certified_points", None),
    (fixlocus, "fixed_locus", "fixlocus.fixed_locus", None),
    (fixlocus, "curve_criterion", "fixlocus.criteria", None),
    (fixlocus, "codim_criterion", "fixlocus.criteria", None),
    (fixlocus, "power_criterion", "fixlocus.criteria", None),
    (planecurves, "group_closure", "planecurves.group_closure", None),
    (planecurves, "classify_cyclic", "planecurves.classify_cyclic", None),
    (planecurves, "quotient_genus", "planecurves.quotient_genus", None),
    (parsing, "parse_polynomial", "parsing.parse_polynomial", None),
    (parsing, "parse_matrix", "parsing.parse_matrix", None),
    (corpus, "load_instance", "corpus.load_instance", None),
    (corpus, "build_report", "corpus.build_report", None),
    (corpus, "normal_form_instance", "corpus.normal_form_instance", None),
]

# (class, attribute, layer name, dense-call predicate)
LEAVES = [
    (exactnum.CycloNum, "__mul__", "exactnum.mul", _dense_mul),
    (exactnum.CycloNum, "inverse", "exactnum.inverse", _dense_inverse),
    (polyring.HomogPoly, "__mul__", "polyring.mul", None),
    (polyring.HomogPoly, "__add__", "polyring.add", None),
    (polyring.HomogPoly, "leading_monomial", "polyring.leading_monomial", None),
]

# the per-layer metrics each phase reports, as (layer, stats)
METRICS = [
    ("exactnum.mul", ("calls", "dense_calls", "self_s")),
    ("exactnum.inverse", ("calls", "dense_calls", "self_s")),
    ("exactnum.embed_lift", ("calls", "self_s")),
    ("exactnum.cyclo_field", ("misses",)),
    ("polyring.transform", ("calls", "self_s", "terms_in", "terms_out")),
    ("polyring.restrict", ("calls", "self_s")),
    ("polyring.mul", ("calls", "self_s")),
    ("polyring.add", ("calls", "self_s")),
    ("polyring.leading_monomial", ("calls", "self_s")),
    ("polyring.divide_by_linear", ("calls", "rejected")),
    ("polyring.eval_at", ("calls", "self_s")),
    ("groebner.groebner_basis", ("calls", "self_s", "timeouts", "basis_size")),
    ("groebner.normal_form", ("calls", "self_s", "nonzero_share")),
    ("groebner.s_polynomial", ("calls", "self_s")),
    ("hypersurface.is_smooth", ("calls", "self_s")),
    ("hypersurface.verify_automorphism", ("calls", "self_s", "rejected")),
    ("hypersurface.multiplicity_at_point", ("calls", "self_s")),
    ("projlin.homology_form", ("calls", "self_s", "general_share")),
    ("projlin.projective_order", ("calls", "self_s")),
    ("projlin.eigen_structure", ("calls", "self_s")),
    ("galois.certificate_from_automorphism", ("calls", "self_s")),
    ("galois.galois_at_point", ("calls", "self_s", "rejected")),
    ("galois.count_certified_points", ("calls", "self_s")),
    ("fixlocus.fixed_locus", ("calls", "self_s")),
    ("fixlocus.criteria", ("calls", "self_s")),
    ("planecurves.group_closure", ("calls", "self_s")),
    ("planecurves.classify_cyclic", ("self_s",)),
    ("planecurves.quotient_genus", ("self_s",)),
    ("parsing.parse_polynomial", ("calls", "self_s")),
    ("parsing.parse_matrix", ("self_s",)),
    ("corpus.load_instance", ("self_s",)),
    ("corpus.build_report", ("self_s",)),
    ("corpus.normal_form_instance", ("self_s",)),
]

# set-up work reported by the traced run under a "setup." prefix
SETUP_METRICS = [
    "setup.corpus.normal_form_instance.self_s",
    "setup.corpus.load_instance.self_s",
    "setup.parsing.parse_polynomial.self_s",
    "setup.polyring.transform.calls",
    "setup.polyring.transform.self_s",
    "setup.exactnum.mul.calls",
    "setup.exactnum.cyclo_field.misses",
]

# shares are ratios of two counters kept under these names
SHARES = {"nonzero_share": "nonzero", "general_share": "general"}


class Tracer:
    """Spans and per-layer counters for one phase of a run at a time."""

    def __init__(self):
        self._saved = []
        self.reset()

    def reset(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.spans = []
        self.leaf_by_parent = defaultdict(lambda: [0, 0, 0.0])
        self._stack = [[0.0, 0]]  # frames of [child time, id of the enclosing span]
        self._next_id = 1
        self._misses0 = exactnum.cyclo_field.cache_info().misses

    # -- wrapping ------------------------------------------------------------

    def _span(self, fn, name, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            frame = [0.0, span_id]
            tracer._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                parent[0] += t1 - t0
                stat = tracer.stats[name]
                stat["calls"] += 1
                stat["self_s"] += t1 - t0 - frame[0]
                tracer.spans.append((span_id, parent[1], name, t0, t1))
            if hook is not None:
                hook(stat, args, result)
            return result

        return wrapper

    def _leaf(self, fn, name, dense):
        tracer = self

        def wrapper(*args):
            parent = tracer._stack[-1]
            frame = [0.0, parent[1]]
            tracer._stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                elapsed = perf_counter() - t0
                tracer._stack.pop()
                parent[0] += elapsed
                agg = tracer.leaf_by_parent[(parent[1], name)]
                agg[0] += 1
                agg[2] += elapsed - frame[0]
                if dense is not None and dense(args):
                    agg[1] += 1

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "galois_scope" or k.startswith("galois_scope."))]
        for owner, attr, name, hook in SPANS:
            self._replace(owner, attr, modules, lambda fn: self._span(fn, name, hook))
        for cls, attr, name, dense in LEAVES:
            self._replace(cls, attr, modules, lambda fn: self._leaf(fn, name, dense))

    def _replace(self, owner, attr, modules, make):
        original = getattr(owner, attr)
        wrapper = make(original)
        # class aliases such as __rmul__ = __mul__, and module imports by name
        targets = [owner] if isinstance(owner, type) else modules
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._saved.append((target, key, original))
                    setattr(target, key, wrapper)

    def uninstall(self):
        for target, key, original in reversed(self._saved):
            setattr(target, key, original)
        self._saved = []

    # -- results -------------------------------------------------------------

    def layer_values(self) -> dict:
        """Every metric of METRICS for the calls recorded since the last reset."""
        totals = defaultdict(lambda: defaultdict(float))
        for name, stat in self.stats.items():
            for k, v in stat.items():
                totals[name][k] += v
        for (_, name), (calls, dense, self_s) in self.leaf_by_parent.items():
            totals[name]["calls"] += calls
            totals[name]["dense_calls"] += dense
            totals[name]["self_s"] += self_s
        misses = exactnum.cyclo_field.cache_info().misses - self._misses0
        totals["exactnum.cyclo_field"]["misses"] = misses
        out = {}
        for layer, stats in METRICS:
            t = totals[layer]
            for stat in stats:
                if stat in SHARES:
                    calls = t["calls"]
                    value = t[SHARES[stat]] / calls if calls else 0.0
                elif stat == "self_s":
                    value = t[stat]
                else:
                    value = int(t[stat])
                out[f"{layer}.{stat}"] = value
        return out

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaf_by_parent": [[pid, name, *agg]
                               for (pid, name), agg in self.leaf_by_parent.items()],
        }

