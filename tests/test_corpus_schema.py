"""The instance and generator schema in `corpus`: every key of every table is
validated when the document is loaded, and every compared key is compared.

Each table key is tried on a document that holds it: EXTRAS (ex1-fermat
with every instance key that the bundled files do not use), SINGULAR (a
singular quartic with its witness) or the bundled generator.  For each key
an unknown sibling is rejected, a value of the wrong shape is rejected, and
a changed expected value gives a failure with the key's label.
"""
import json
from pathlib import Path

import pytest

from galois_scope import corpus
from galois_scope.corpus import (
    GENERATOR,
    INSTANCE,
    build_report,
    bundled_corpus_dir,
    load_instance,
    run_generator,
)
from galois_scope.errors import GaloisScopeError

DATA = bundled_corpus_dir()
README = Path(__file__).resolve().parent.parent / "README.md"


def bundled(name: str) -> dict:
    return json.loads((DATA / f"{name}.json").read_text())


EXTRAS = bundled("ex1-fermat")
EXTRAS["points"] = {"p": ["1", "0", "0"]}
EXTRAS["expect"].update(smooth_deadline=60, discrepancies_nonempty=True)
EXTRAS["expect"]["automorphisms"]["g1"]["fixed_locus"]["component_count"] = 2
EXTRAS["expect"]["automorphisms"]["h4"].update(
    detect_powers_none=[2], rows_include=[1],
    criterion={"name": "power", "k": 2, "verdict": "not applicable: order 4 is not k(d-1) = 6"})
SINGULAR = {**bundled("ex1-fermat"), "polynomial": "x0^4 + x1^4",
            "expect": {"smooth": "certified_singular", "singular_witness": ["0", "0", "1"]}}
DOCUMENTS = [("instance", EXTRAS), ("instance", SINGULAR),
             ("generator", bundled("normal-form-family"))]

# each compared key: an expected value that differs from the computed one,
# and the label of the failure it gives
CHANGED = {
    ("expect", "smooth"): ("certified_singular", "smoothness"),
    ("expect", "singular_witness"): (["1", "0", "0"], "singular witness"),
    ("expect", "automorphisms"): ({"nope": {}}, "automorphism nope"),
    ("expect", "automorphisms", "*", "verified"): (False, "g1.verified"),
    ("expect", "automorphisms", "*", "order"): (3, "g1.order"),
    ("expect", "automorphisms", "*", "scale"): ("2", "g1.scale"),
    ("expect", "automorphisms", "*", "certificate"): ({"kind": "inner"}, "h4.certificate.kind"),
    ("expect", "automorphisms", "*", "detect_powers_none"): ([1], "h4^b1 detector"),
    ("expect", "automorphisms", "*", "fixed_locus", "total_finite"):
        (5, "g1.fixed_locus.total_finite"),
    ("expect", "automorphisms", "*", "fixed_locus", "max_dim"): (1, "g1.fixed_locus.max_dim"),
    ("expect", "automorphisms", "*", "fixed_locus", "component_count"):
        (3, "g1.fixed_locus.component_count"),
    ("expect", "automorphisms", "*", "rows"): ([2], "h4.rows"),
    ("expect", "automorphisms", "*", "rows_include"): ([2], "h4.rows includes 2"),
    ("expect", "automorphisms", "*", "criterion", "verdict"): ("holds", "h4.criterion.verdict"),
    ("expect", "points"): ({"e0": "inner"}, "point e0"),
    ("expect", "counts", "inner"): (1, "counts.inner"),
    ("expect", "counts", "outer"): (2, "counts.outer"),
    ("expect", "rh", "curve_genus"): (4, "rh.curve_genus"),
    ("expect", "rh", "stabilizer_sum"): (11, "rh.stabilizer_sum"),
    ("expect", "rh", "group_order"): (8, "rh.group_order"),
    ("expect", "rh", "quotient_genus"): (1, "rh.quotient_genus"),
    ("expect", "rh", "fix_counts"): ([4, 4], "rh.fix_counts"),
    ("expect", "abelian_check", "verdict"): ("fail", "abelian_check.verdict"),
    ("expect", "discrepancies_nonempty"): (False, "discrepancies recorded"),
}


def table_keys(table: dict, path=()):
    """(path, Key) for every key of the table and of its nested tables."""
    for key, spec in table.items():
        yield path + (key,), spec
        if isinstance(spec.shape, dict):
            yield from table_keys(spec.shape, path + (key,))


KEYS = [(kind, path, spec) for kind, table in (("instance", INSTANCE), ("generator", GENERATOR))
        for path, spec in table_keys(table)]


def compared(spec) -> bool:
    """A key whose expected value build_report compares itself, not key by
    key through a nested table."""
    return spec.read is not None and (spec.check is not None or not isinstance(spec.shape, dict))


def locate(block, path):
    """The concrete path to `path` in block, each "*" the first name whose
    value holds the rest of the path, or None."""
    if not path:
        return ()
    if not isinstance(block, dict):
        return None
    for name in (block if path[0] == "*" else [path[0]]):
        rest = locate(block[name], path[1:]) if name in block else None
        if rest is not None:
            return (name,) + rest
    return None


def holder(kind, path):
    """A deep copy of the first document of this kind that holds `path`,
    and the concrete path there."""
    for doc_kind, doc in DOCUMENTS:
        where = locate(doc, path) if doc_kind == kind else None
        if where is not None:
            return json.loads(json.dumps(doc)), where
    raise AssertionError(f"no test document holds {kind} key {'.'.join(path)}")


def block_at(doc, where):
    for key in where:
        doc = doc[key]
    return doc


def error(kind, doc) -> str:
    """The input error that loading the instance, or running the generator, raises."""
    with pytest.raises(GaloisScopeError) as exc:
        (run_generator if kind == "generator" else load_instance)(doc)
    return str(exc.value)


def key_id(key):
    kind, path, _ = key
    return f"{kind}:{'.'.join(path)}"


def test_every_compared_key_has_a_changed_value():
    assert {path for kind, path, spec in KEYS if compared(spec)} == set(CHANGED)


def test_the_test_documents_pass_unchanged():
    for kind, doc in DOCUMENTS:
        if kind == "instance":
            assert build_report(load_instance(doc))["expectations"]["failures"] == []


@pytest.mark.parametrize("key", [k for k in KEYS if k[1][-1] != "*"], ids=key_id)
def test_an_unknown_sibling_key_is_rejected(key):
    kind, path, _ = key
    doc, where = holder(kind, path)
    block_at(doc, where[:-1])["zz_unknown"] = 1
    assert error(kind, doc).endswith("has unknown keys ['zz_unknown']")


@pytest.mark.parametrize("key", [k for k in KEYS if k[2].shape is not None], ids=key_id)
def test_a_value_of_the_wrong_shape_is_rejected(key):
    kind, path, spec = key
    doc, where = holder(kind, path)
    # 5 for a nested block or a shape that takes an object, which no other shape takes
    wrong = 5 if isinstance(spec.shape, dict) or spec.shape({}, {}, doc) else {"?": []}
    block_at(doc, where[:-1])[where[-1]] = wrong
    message = error(kind, doc)
    assert message == f"{kind} value {'.'.join(where)} must be " + (
        "a JSON object" if isinstance(spec.shape, dict) else spec.what)


@pytest.mark.parametrize("key", [k for k in KEYS if compared(k[2])], ids=key_id)
def test_a_changed_expectation_fails_with_its_label(key):
    kind, path, _ = key
    doc, where = holder(kind, path)
    value, label = CHANGED[path]
    block_at(doc, where[:-1])[where[-1]] = value
    failures = build_report(load_instance(doc))["expectations"]["failures"]
    assert len(failures) == 1 and failures[0].startswith(f"{label}:")


def test_a_generator_draws_at_most_1000_instances(monkeypatch):
    # 1000 instances take about 4 s on a 2-core host; 1001 is refused before
    # a single instance is drawn
    monkeypatch.setattr(corpus, "run_family",
                        lambda seed, count, dims, degrees: {"instances": count, "failures": []})
    doc = bundled("normal-form-family")
    assert run_generator({**doc, "count": 1000})["family"] == {"instances": 1000}
    assert error("generator", {**doc, "count": 1001}) == \
        "generator value count must be an integer from 1 to 1000"


def readme_schema_section() -> str:
    text = README.read_text()
    return text[text.index("### Instance and generator files"):text.index("## Library example")]


def test_readme_lists_every_table_key():
    section = readme_schema_section()
    missing = [key_id(k) for k in KEYS if k[1][-1] != "*" and f"`{k[1][-1]}`" not in section]
    assert missing == []
