import io
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galois_scope import cli, corpus
from galois_scope.cli import main
from galois_scope.corpus import bundled_corpus_dir, load_instance, run_one
from galois_scope.errors import BoundViolation, ConsistencyError
from galois_scope.hypersurface import verify_automorphism
from galois_scope.parsing import render_poly

DATA = bundled_corpus_dir()
POLY = ["--poly", "x0^4 + x1^4 + x2^4"]
# an integer literal past the interpreter's limit on int-string conversion
BIG = "1" * 5000


def with_big_point(raw: dict) -> str:
    """The JSON text of raw with a point whose first coordinate is BIG, a
    JSON integer that json.dumps itself cannot write."""
    return json.dumps({**raw, "points": {"big": ["BIG", 1, 0]}}).replace('"BIG"', BIG)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_galois_detect_exit_zero(capsys):
    code, doc = run_cli(capsys, "galois-detect", str(DATA / "ex1-fermat.json"), "--aut", "h4")
    assert code == 0
    assert doc["certificate"]["kind"] == "outer"
    assert doc["certificate"]["group_order"] == 4


def test_galois_at_point_none(capsys):
    code, doc = run_cli(capsys, "galois-at-point", str(DATA / "exa1.json"), "--point", "e0")
    assert code == 0
    assert doc["verdict"] == "none"


def test_order_command(capsys):
    code, doc = run_cli(capsys, "order", str(DATA / "exa3.json"), "--aut", "h")
    assert code == 0
    assert doc["order"] == 495


def test_input_error_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema": "galois-scope/1", "kind": "instance", "name": "bad",
        "n": 1, "d": 4, "field": 1, "polynomial": "x0^4 + x1^3",
    }))
    code = main(["check-smooth", str(bad)])
    assert code == 2
    code = main(["verify-aut", str(DATA / "exa1.json"), "--aut", "nope"])
    assert code == 2


def test_timeout_exit_three(capsys):
    # a budget that expires before the first S-pair: the timeout path, every time
    code, doc = run_cli(capsys, "check-smooth", str(DATA / "exa2.json"),
                        "--deadline", "0.000001")
    assert code == 3
    assert doc["status"] == "timeout"


def test_rh_genus_command(capsys):
    code, doc = run_cli(capsys, "rh-genus", str(DATA / "ex1-fermat.json"), "--group", "G")
    assert code == 0
    assert doc["quotient_genus"] == 0
    assert doc["stabilizer_sum"] == 12


def test_classify_command(capsys):
    code, doc = run_cli(capsys, "classify-cyclic", str(DATA / "exa1.json"), "--aut", "g")
    assert code == 0
    assert [r["row"] for r in doc["rows"]] == [4]


def test_count_points_command(capsys):
    code, doc = run_cli(capsys, "count-points", str(DATA / "ex1-fermat.json"))
    assert code == 0
    assert doc["outer"] == 3 and doc["inner"] == 0


def test_inline_poly(capsys):
    code, doc = run_cli(capsys, "check-smooth", "--poly", "x0^4 + x1^4 + x2^4",
                        "--nvars", "3", "--field", "1")
    assert code == 0
    assert doc["status"] == "certified_smooth"


@pytest.mark.parametrize("line", ["x0", "x0+x1"])
def test_line_is_smooth(capsys, line):
    # the partials are constants, so the Jacobian ideal is the unit ideal
    code, doc = run_cli(capsys, "check-smooth", "--poly", line, "--nvars", "3", "--field", "1")
    assert code == 0
    assert doc["status"] == "certified_smooth" and doc["witness"] is None


def test_json_out_writes_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, doc = run_cli(capsys, "verify-aut", str(DATA / "exa1.json"), "--aut", "g",
                        "--json-out", str(out))
    assert code == 0
    assert json.loads(out.read_text()) == doc


def test_json_out_unwritable_prints_nothing(capsys, tmp_path):
    code = main(["order", str(DATA / "exa1.json"), "--aut", "g",
                 "--json-out", str(tmp_path / "missing" / "x.json")])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


def test_corpus_single_instance_deterministic():
    r1 = run_one(DATA / "exa1.json")
    r2 = run_one(DATA / "exa1.json")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["expectations"]["failures"] == []


def test_corpus_run_small_dir(capsys, tmp_path):
    (tmp_path / "one.json").write_text((DATA / "exa1.json").read_text())
    code, doc = run_cli(capsys, "corpus-run", str(tmp_path))
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["matrix"][0]["name"] == "exa1"


def test_corpus_run_failure_exit_one(capsys, tmp_path):
    raw = json.loads((DATA / "exa1.json").read_text())
    raw["expect"]["automorphisms"]["g"]["order"] = 7  # wrong on purpose
    (tmp_path / "broken.json").write_text(json.dumps(raw))
    code, doc = run_cli(capsys, "corpus-run", str(tmp_path))
    assert code == 1
    assert doc["status"] == "fail"
    assert any("order" in f for f in doc["matrix"][0]["failures"])


# the cone x1^4 + x2^4, singular at e0: g has three eigenvalues, so no
# homology and no certificate, while e0 is fixed; a singular X is outside the
# criterion, not an internal fault
CONE = {"field": 4, "polynomial": "x1^4 + x2^4", "groups": {},
        "automorphisms": {"g": [["z(4)", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]]}}


@pytest.mark.parametrize("instance, edit, aut, criterion, reason", [
    ("ex1-fermat", {}, "h4", {"name": "power", "k": 2}, "order 4 is not k(d-1) = 6"),
    ("ex1-fermat", {}, "h4", {"name": "codim"}, "codimension criterion requires n >= 2"),
    ("ex1-fermat", {}, "g1", {"name": "curve"}, "order 2 is neither d-1 nor d"),
    ("exa5", {}, "g3", {"name": "codim"}, "order 2 is neither d-1 nor d"),
    ("exa4", {}, "g", {"name": "curve"}, "curve criterion requires n = 1"),
    ("ex1-fermat", CONE, "g", {"name": "curve"}, "X is singular, outside the smooth-case "
     "theorems: curve criterion holds but no certificate was produced"),
], ids=["power", "codim", "curve-order", "codim-order", "curve-surface", "singular-cone"])
def test_corpus_run_inapplicable_criterion_exit_one(capsys, tmp_path, instance, edit, aut,
                                                    criterion, reason):
    raw = json.loads((DATA / f"{instance}.json").read_text())
    raw.update(edit)
    raw["expect"] = {"automorphisms": {aut: {"criterion": {**criterion, "verdict": "holds"}}}}
    (tmp_path / "inst.json").write_text(json.dumps(raw))
    code, doc = run_cli(capsys, "corpus-run", str(tmp_path))
    assert code == 1
    assert doc["matrix"][0]["failures"] == [
        f"{aut}.criterion.verdict: expected 'holds', got 'not applicable: {reason}'"]


def fermat_report(expect, **edit):
    """build_report on ex1-fermat with the given expect block and keys replaced."""
    raw = json.loads((DATA / "ex1-fermat.json").read_text())
    raw.update(edit, expect=expect)
    return corpus.build_report(load_instance(raw))


@pytest.mark.parametrize("include, failures", [
    ([1], []),
    ([1, 2], ["h4.rows includes 2: expected True, got False"]),
])
def test_build_report_rows_include(monkeypatch, include, failures):
    calls = []
    classify = corpus.classify_cyclic
    monkeypatch.setattr(corpus, "classify_cyclic", lambda X, w: calls.append(w) or classify(X, w))
    report = fermat_report({"automorphisms": {"h4": {"rows": [1], "rows_include": include}}})
    assert report["expectations"] == {"checked": 1 + len(include), "failures": failures}
    assert report["automorphisms"]["h4"]["classification_rows"] == [1]
    assert len(calls) == 1  # one classification serves both expectations


@pytest.mark.parametrize("witness, failures", [
    (["0", "0", "1"], []),
    (["1", "0", "0"], ["singular witness: expected ['1', '0', '0'], got ['0', '0', '1']"]),
])
def test_build_report_singular_witness(witness, failures):
    report = fermat_report({"smooth": "certified_singular", "singular_witness": witness},
                           polynomial="x0^4 + x1^4")
    assert report["smoothness"] == {"status": "certified_singular", "witness": ["0", "0", "1"]}
    assert report["expectations"] == {"checked": 2, "failures": failures}


@pytest.mark.parametrize("name, failures", [
    ("h4", []),
    ("nope", ["automorphism nope: not defined in the instance"]),
])
def test_build_report_undefined_automorphism(name, failures):
    report = fermat_report({"automorphisms": {name: {"verified": True}}})
    assert report["expectations"]["failures"] == failures
    assert "nope" not in report["automorphisms"]


def test_build_report_fails_expectations_on_an_unverified_automorphism():
    """exa6's h does not verify: each expectation that needs a verified
    automorphism is one failure, not a skipped check."""
    raw = json.loads((DATA / "exa6.json").read_text())
    keys = ("detect_powers_none", "fixed_locus", "rows", "rows_include", "criterion")
    raw["expect"]["automorphisms"]["h"].update(
        detect_powers_none=[1], fixed_locus={"max_dim": 1}, rows=[1], rows_include=[1],
        criterion={"name": "codim", "verdict": "fails"})
    report = corpus.build_report(load_instance(raw))
    assert report["automorphisms"]["h"]["verified"] is False
    assert report["expectations"]["failures"] == [
        f"h.{key}: not computed, h is not verified" for key in keys]


def test_build_report_builds_only_the_closures_it_reads(monkeypatch):
    calls = []
    closure = corpus.group_closure
    monkeypatch.setattr(corpus, "group_closure", lambda gens: calls.append(gens) or closure(gens))
    fermat_report({"counts": {"candidates": "coordinate", "inner": 0, "outer": 3}})
    assert calls == []  # ex1-fermat keeps its group G, which no expectation reads
    fermat_report({"rh": {"group": "G"}, "abelian_check": {"group": "G", "verdict": "pass"}})
    assert len(calls) == 1  # one closure serves both


# the binode x0^4 + x1^4, singular at e2, where the plane-curve theorems do
# not apply: the quotient genus by <m> is -3/8, and by <k> 9/8; no
# classification row holds k
BINODE = {"schema": "galois-scope/1", "kind": "instance", "name": "binode", "n": 1, "d": 4,
          "field": 4, "polynomial": "x0^4 + x1^4",
          "automorphisms": {"k": [["z(4)", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]],
                            "m": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "z(4)"]]},
          "groups": {"G": ["m"], "K": ["k"]}}
OUTSIDE = "X is singular, outside the smooth-case theorems: "


@pytest.mark.parametrize("argv, message", [
    (["rh-genus", "--group", "G"], "quotient genus -3/8 is not a non-negative integer"),
    (["classify-cyclic", "--aut", "k"],
     "no classification row matched; the input is not an automorphism of a smooth curve"),
], ids=["rh-genus", "classify-cyclic"])
def test_plane_curve_check_on_singular_x_exit_two(capsys, tmp_path, argv, message):
    (tmp_path / "binode.json").write_text(json.dumps(BINODE))
    code = main([argv[0], str(tmp_path / "binode.json"), *argv[1:]])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == OUTSIDE + message


def test_corpus_run_quotient_genus_on_singular_x_is_a_failed_row(capsys, tmp_path):
    (tmp_path / "exa4.json").write_text((DATA / "exa4.json").read_text())
    # with m among the automorphisms the report fails earlier, at the
    # certificate of m, whose center e2 is the node
    (tmp_path / "binode.json").write_text(json.dumps({
        **BINODE, "automorphisms": {"k": BINODE["automorphisms"]["k"]},
        "groups": {"K": ["k"]}, "expect": {"rh": {"group": "K"}}}))
    code, doc = run_cli(capsys, "corpus-run", str(tmp_path))
    assert code == 1 and doc["status"] == "fail"
    bad, good = doc["matrix"]
    assert bad == {"name": "binode.json", "checked": 0, "status": "fail", "failures": [
        f"input error: {OUTSIDE}quotient genus 9/8 is not a non-negative integer"]}
    assert good["name"] == "exa4" and good["status"] == "pass"


def test_corpus_run_isolates_bad_files(capsys, tmp_path):
    (tmp_path / "exa4.json").write_text((DATA / "exa4.json").read_text())
    (tmp_path / "bad.json").write_text('{"schema": "galois-scope/1", "kind": "instance"')
    (tmp_path / "list.json").write_text("[1, 0, 0]")
    exa4 = json.loads((DATA / "exa4.json").read_text())
    (tmp_path / "big.json").write_text(with_big_point(exa4))
    (tmp_path / "empty-group.json").write_text(json.dumps({**exa4, "groups": {"E": []}}))
    code, doc = run_cli(capsys, "corpus-run", str(tmp_path))
    assert code == 1 and doc["status"] == "fail"
    assert [m["name"] for m in doc["matrix"]] == [
        "bad.json", "big.json", "empty-group.json", "exa4", "list.json"]
    bad, big, empty, good, listed = doc["matrix"]
    assert good["status"] == "pass" and good["failures"] == [] and good["checked"] > 0
    assert bad["failures"][0].startswith("input error: Expecting")
    assert listed["failures"] == ["input error: an instance must be a JSON object"]
    assert big["failures"][0].startswith("input error: an integer literal of 5000 digits")
    assert empty["failures"] == [
        "input error: instance value groups.E must be a nonempty list of automorphism names"]
    assert bad["checked"] == listed["checked"] == big["checked"] == empty["checked"] == 0
    assert doc["reports"] == [json.loads(json.dumps(run_one(DATA / "exa4.json")))]
    # with no file that gives a report nothing ran: an input error, as for one file
    (tmp_path / "exa4.json").unlink()
    assert main(["corpus-run", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"].startswith("bad.json: Expecting")


def test_corpus_run_fails_a_misspelt_expectation(capsys, tmp_path):
    # "eigne" would run the coordinate candidates and pass
    (tmp_path / "exa4.json").write_text((DATA / "exa4.json").read_text())
    exa1 = json.loads((DATA / "exa1.json").read_text())
    exa1["expect"]["counts"]["candidates"] = "eigne"
    (tmp_path / "exa1.json").write_text(json.dumps(exa1))
    code, doc = run_cli(capsys, "corpus-run", str(tmp_path))
    assert code == 1 and doc["status"] == "fail"
    bad, good = doc["matrix"]
    assert bad["name"] == "exa1.json" and bad["checked"] == 0
    assert bad["failures"] == [
        "input error: instance value expect.counts.candidates must be coordinate or eigen"]
    assert good["name"] == "exa4" and good["status"] == "pass"


@pytest.mark.parametrize("where", ["missing", "file", "empty"])
def test_corpus_run_over_no_files_is_an_input_error(capsys, tmp_path, where):
    """A DIR that gives no paths at all is an input error that names it, not
    an empty matrix that passes."""
    target = tmp_path / where
    if where == "file":
        target.write_text((DATA / "exa1.json").read_text())
    elif where == "empty":
        target.mkdir()
        (target / "notes.txt").write_text("not an instance")
    code = main(["corpus-run", str(target)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == f"{target}: not a directory holding *.json files"


def test_corpus_run_internal_fault_exit_four(capsys, monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise ConsistencyError("theorem-level check failed")

    (tmp_path / "exa1.json").write_text((DATA / "exa1.json").read_text())
    monkeypatch.setattr(corpus, "build_report", fail)
    assert main(["corpus-run", str(tmp_path)]) == 4
    assert "theorem-level check failed" in json.loads(capsys.readouterr().err)["error"]


def test_round_trip_all_corpus_polynomials():
    from galois_scope.parsing import parse_polynomial, render_poly

    for path in sorted(DATA.glob("*.json")):
        raw = json.loads(path.read_text())
        if raw.get("kind") != "instance":
            continue
        inst = load_instance(raw)
        f = inst.surface.F
        assert parse_polynomial(render_poly(f), f.nvars, f.field) == f


def test_family_deterministic_across_runs():
    from galois_scope.corpus import run_family

    r1 = run_family(99, 6, [1, 2], [4, 5])
    r2 = run_family(99, 6, [1, 2], [4, 5])
    assert r1 == r2
    assert r1["failures"] == []


def test_corpus_run_seed_flag(capsys, tmp_path):
    (tmp_path / "family.json").write_text(json.dumps({
        "schema": "galois-scope/1", "kind": "generator", "name": "family",
        "seed": 1, "count": 4, "dims": [1], "degrees": [4, 5]}))
    code, doc = run_cli(capsys, "corpus-run", str(tmp_path), "--seed", "77")
    assert code == 0
    assert doc["reports"][0]["family"]["instances"] == 4


def test_group_closure_inline_generators(capsys):
    code, doc = run_cli(capsys, "group-closure", str(DATA / "ex1-fermat.json"),
                        "--group", "g1,g2")
    assert code == 0
    assert doc["order"] == 4 and doc["abelian"] and not doc["cyclic"]


def test_group_single_generator(capsys):
    # a --group value that names no group is read as generator names
    code, doc = run_cli(capsys, "group-closure", str(DATA / "ex1-fermat.json"),
                        "--group", "h4")
    assert code == 0
    assert doc["order"] == 4 and doc["cyclic"]


def test_corpus_run_codim_criterion_degree_41(capsys, tmp_path):
    # is_smooth has no degree limit: the fixed plane section x1^41 + x2^41 + x3^41
    # of the order-40 homology is certified smooth, so an inner point is forced
    (tmp_path / "d41.json").write_text(json.dumps({
        "schema": "galois-scope/1", "kind": "instance", "name": "d41", "n": 2, "d": 41,
        "field": 40, "polynomial": "x0^40*x1 + x1^41 + x2^41 + x3^41",
        "automorphisms": {"g": [["z(40)", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
        "expect": {"automorphisms": {"g": {"criterion": {"name": "codim", "verdict": "holds"}}}}}))
    code, doc = run_cli(capsys, "corpus-run", str(tmp_path))
    assert code == 0
    criterion = doc["reports"][0]["automorphisms"]["g"]["criterion"]
    assert criterion["kind"] == "inner" and criterion["certificate"]["kind"] == "inner"


@pytest.mark.parametrize("n, d, kind", [(1, 4, "inner"), (2, 5, "outer")])
def test_conjugated_homology_commands(capsys, tmp_path, n, d, kind):
    # a normal form's generator is a homology conjugated by a random change of
    # coordinates; fix-locus and count-points --eigen read it as it stands, as
    # galois-detect does
    X, B, _, _ = corpus.normal_form_instance(random.Random(f"cli:{n}:{d}:{kind}"), n, d, kind)
    assert B.monomial_permutation() is None
    path = tmp_path / "nf.json"
    path.write_text(json.dumps({
        "schema": "galois-scope/1", "kind": "instance", "name": "nf", "n": n, "d": d,
        "field": X.field.N, "polynomial": render_poly(X.F),
        "automorphisms": {"g": [corpus.render_point(r) for r in B.rows]}}))
    code, doc = run_cli(capsys, "galois-detect", str(path), "--aut", "g")
    assert code == 0 and doc["certificate"]["kind"] == kind
    code, doc = run_cli(capsys, "fix-locus", str(path), "--aut", "g")
    assert code == 0
    # the center comes first: on X for an inner point, off X for an outer one
    assert doc["fixed_locus"]["components"][0]["dim"] == (0 if kind == "inner" else -1)
    code, doc = run_cli(capsys, "count-points", str(path), "--eigen")
    assert code == 0 and doc[kind] == 1


def test_count_points_eigen_skips_unverified(capsys):
    # exa6's h is no automorphism; as in the corpus counts, only verified
    # matrices contribute eigenpoints
    code, doc = run_cli(capsys, "count-points", str(DATA / "exa6.json"), "--eigen")
    assert code == 0
    assert (doc["inner"], doc["outer"]) == (0, 0)


@pytest.mark.parametrize("error", [ConsistencyError, BoundViolation])
def test_internal_fault_exit_four(capsys, monkeypatch, error):
    def fail(*args):
        raise error("theorem-level check failed")

    monkeypatch.setattr(cli, "certificate_from_automorphism", fail)
    code = main(["galois-detect", str(DATA / "ex1-fermat.json"), "--aut", "h4"])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert "theorem-level check failed" in json.loads(err)["error"]
    assert "Traceback" not in err


def test_forged_mismatch_on_smooth_x_exit_four(capsys, monkeypatch):
    # a singular X at the same check exits 2 (INPUT_FAULTS); a smooth one stays a fault
    def forged(X, A):  # a verified witness whose reading puts its centre on X
        w = verify_automorphism(X, A)
        return replace(w, reading=w.reading[:3] + (1,))

    monkeypatch.setattr(cli, "verify_automorphism", forged)
    code = main(["galois-detect", str(DATA / "ex1-fermat.json"), "--aut", "h4"])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert "detected outer shape but the center has multiplicity 1" in json.loads(err)["error"]


# each argv ends in exit 2 with a JSON error; "{data}" is the bundled corpus,
# "{dir}" holds inst.json, ex1-fermat.json with the given keys replaced
# (None: removed), the files of FAULT_FILES and three files with a BIG
# literal: big-point.json, big-poly.json and big-candidates.json
FAULT_FILES = {
    "short.json": [[1, 0, 0], [1, 0]],  # a candidate with 2 coordinates
    "null.json": [[1, None, 0]],
    "number.json": 5,  # candidates not in a list
    "list.json": [1, 0, 0],  # an instance that is not an object
    "float.json": [[0.1, 1, 0]],  # a JSON float coordinate
    # six points off the cone x0^4 + x1^4 + x2^4 = 0 in P^3 that the point
    # side takes as outer Galois points, over the smooth-case bound 4
    "cone-points.json": [[1, 0, 0, t] for t in range(5)] + [[0, 1, 0, 0]],
    "e0.json": [[1, 0, 0]],  # a good candidate set, faulted only by the flags beside it
}
CONE = {"field": 4, "polynomial": "x1^4 + x2^4",
        "automorphisms": {"g": [["z(4)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}}
# the instance keys of ex1-fermat, removed where a row makes it a generator
# document that only the row's own key breaks
NOT_INSTANCE = dict.fromkeys(
    ("n", "d", "field", "polynomial", "automorphisms", "groups", "expect", "notes"))
# argument errors, which argparse finds: a bad --field, a missing --aut, an
# unknown command and any --jobs, an option corpus-run does not have: it runs
# every file in the calling process
ARGUMENT_ERRORS = [
    ["check-smooth", *POLY, "--field", "abc"],
    ["verify-aut", "{data}/exa1.json"],
    ["no-such-command"],
    ["corpus-run", "--jobs", "two"],
    *(["corpus-run", "{data}", "--jobs", value] for value in ("2", "0", "-3")),
]
INPUT_FAULTS = [
    *(([cmd, *POLY, "--aut", "g"], {}) for cmd in
      ("verify-aut", "order", "fix-locus", "galois-detect", "classify-cyclic")),
    (["rh-genus", *POLY, "--group", "G"], {}),
    (["group-closure", "{data}/ex1-fermat.json", "--group", "g1,nope"], {}),
    (["galois-at-point", "{data}/ex1-fermat.json", "--point", "e3"], {}),
    (["corpus-run", "{dir}"], {"groups": {"G": ["g1", "nope"]}}),
    (["check-smooth", "{dir}/inst.json"], {"polynomial": None}),
    *((["galois-at-point", "{data}/ex1-fermat.json", "--coords", c], {})
      for c in ("1,0", "0,0,0", "1,0,0,0", "0.1,1,0")),
    (["count-points", "{data}/ex1-fermat.json", "--candidates", "{dir}/short.json"], {}),
    (["count-points", "{data}/ex1-fermat.json", "--candidates", "{dir}/e0.json", "--eigen"], {}),
    (["galois-at-point", "{dir}/inst.json", "--point", "p"], {"points": {"p": [1, 0]}}),
    (["count-points", "{dir}/inst.json"], {"points": {"p": [0, 0, 0]}}),
    (["galois-at-point", "--poly", "x0^3 + x1^3 + x2^3", "--point", "e0"], {}),
    (["count-points", "--poly", "x0^3 + x1^3 + x2^3"], {}),
    (["check-smooth", *POLY, "--field", "0"], {}),
    (["verify-aut", "{dir}/inst.json", "--aut", "g1"], {"field": 0}),
    (["check-smooth", "--poly", "x0^4 + z(0)*x1^4 + x2^4"], {}),
    *((["count-points", "{data}/ex1-fermat.json", "--candidates", f"{{dir}}/{f}"], {})
      for f in ("null.json", "number.json", "float.json")),
    (["verify-aut", "{dir}/inst.json", "--aut", "null"],
     {"automorphisms": {"null": [[1, None, 0], [0, 1, 0], [0, 0, 1]]}}),
    (["galois-at-point", "{dir}/inst.json", "--point", "nested"],
     {"points": {"nested": [[1], 0, 0]}}),
    # a JSON float never enters exact arithmetic, integral or not
    (["galois-at-point", "{dir}/inst.json", "--point", "float"],
     {"points": {"float": [0.1, 1, 0]}}),
    *((["verify-aut", "{dir}/inst.json", "--aut", "float"],
       {"automorphisms": {"float": [[x, 0, 0], [0, x, 0], [0, 0, x]]}}) for x in (0.1, 4.0)),
    (["order", "{dir}/inst.json", "--aut", "ragged"],
     {"automorphisms": {"ragged": [[1, 0, 0], [0, 1], [0, 0, 1]]}}),
    (["order", "{dir}/inst.json", "--aut", "tall"],
     {"automorphisms": {"tall": [[1, 0], [0, 1], [0, 0]]}}),
    *(([cmd, "{dir}/inst.json", "--aut", "small"],
       {"automorphisms": {"small": [[1, 0], [0, 1]]}}) for cmd in ("order", "verify-aut")),
    (["order", "{dir}/inst.json", "--aut", "singular"],
     {"automorphisms": {"singular": [[1, 1, 0], [1, 1, 0], [0, 0, 1]]}}),
    (["fix-locus", "{dir}/inst.json", "--aut", "g1"], {"n": "one"}),
    (["galois-detect", "{dir}/inst.json", "--aut", "g1"], {"polynomial": 5}),
    (["check-smooth", "{dir}/list.json"], {}),
    (["check-smooth", "--poly", "x0-x0"], {}),
    (["check-smooth", "--poly", "x0^4", "--nvars", "1"], {}),
    *((["corpus-run", "{dir}"], edit) for edit in (
        {"groups": {"G": 5}},
        {"expect": {"automorphisms": []}},
        {"expect": {"counts": 3}},
        {"expect": {"points": ["e0"]}},
        {"expect": {"automorphisms": {"h4": 3}}},
        {"expect": {"rh": {"group": "H"}}},
        {"expect": {"abelian_check": {"group": "H", "verdict": "pass"}}},
        {"expect": {"automorphisms": {"h4": {"detect_powers_none": ["x"]}}}},
        {"expect": {"automorphisms": {"h4": {"rows_include": 4}}}},
        {"expect": {"automorphisms": {"h4": {"criterion": {"verdict": "holds"}}}}},
        {"expect": {"automorphisms": {"h4": {"criterion": {"name": "power", "verdict": "holds"}}}}},
        # a misspelt expectation key or candidate set, which would skip its check
        {"expect": {"counts": {"candidates": "eigne", "inner": 0, "outer": 3}}},
        {"expect": {"counts": {"candidate": "eigen", "inner": 0, "outer": 3}}},
        {"expect": {"smoth": "certified_smooth"}},
        {"expect": {"automorphisms": {"h4": {"verified": True, "fixed_locs": {}}}}},
        {"expect": {"automorphisms": {"h4": {"fixed_locus": {"total": 3}}}}},
        {"expect": {"rh": {"group": "G", "curve_genu": 3}}},
        {"expect": {"abelian_check": {"group": "G", "verdict": "pass", "verdct": "pass"}}},
        {"expect": {"automorphisms": {"h4": {"criterion": {
            "name": "curve", "verdict": "holds", "verdcit": "holds"}}}}},
        # a k off a power criterion, which no criterion but power reads
        {"expect": {"automorphisms": {"h4": {"criterion": {
            "name": "curve", "verdict": "holds", "k": 2}}}}},
        # a singular witness with no smooth status to check it against
        {"expect": {"singular_witness": ["0", "0", "1"]}},
        *({"expect": {"smooth": smooth, "singular_witness": ["0", "0", "1"]}}
          for smooth in ("skip", "optional")),
        # counts without the inner or outer count they compare
        {"expect": {"counts": {"candidates": "coordinate", "outer": 3}}},
        {"expect": {"counts": {"inner": 0}}},
        # a misspelt top-level key of an instance and of a generator
        {"expekt": {"smooth": "certified_smooth"}, "expect": None},
        {"kind": "generator", "cuont": 3, **NOT_INSTANCE},
        # a count past MAX_COUNT, which would draw 1001 instances
        {"kind": "generator", "count": 1001, **NOT_INSTANCE},
    )),
    (["check-smooth", "{dir}/inst.json"], {"expect": {"counts": {"candidates": "eigne"}}}),
    # generator files and notes: every key is checked before anything runs
    *((["corpus-run", "{dir}"], {"kind": "generator", **NOT_INSTANCE, **edit}) for edit in (
        {"count": "3"}, {"dims": "ab"}, {"dims": [1.5]}, {"dims": [0]}, {"seed": [1]},
        {"degrees": [1]}, {"name": None})),
    (["corpus-run", "{dir}"], {"notes": 5}),
    # a group with no generators
    *(([cmd, "{dir}/inst.json", "--group", "E"], {"groups": {"G": ["g1", "g2"], "E": []}})
      for cmd in ("group-closure", "rh-genus")),
    (["corpus-run", "{dir}"], {"groups": {"G": ["g1", "g2"], "E": []}}),
    *(([cmd, path, "--deadline", value], {})
      for cmd, path in (("check-smooth", "{data}/exa5.json"), ("corpus-run", "{data}"))
      for value in ("nan", "0", "-1")),
    *((["group-closure", "{data}/ex1-fermat.json", "--group", "g1", "--bound", value], {})
      for value in ("0", "-5")),
    # counts are JSON integers, and the conductor, n and the degree have size limits
    *((["galois-at-point", "{dir}/inst.json", "--point", "e0"], edit) for edit in (
        {"field": 8.0}, {"field": 4.563187474302769e16}, {"field": 100_001}, {"d": "4"},
        {"n": True}, {"n": 10**12, "automorphisms": None})),
    (["galois-at-point", *POLY, "--field", "100001", "--point", "e0"], {}),
    (["galois-at-point", "--poly", "x0^1001 + x1^1001 + x2^1001", "--point", "e0"], {}),
    (["check-smooth", "--poly", "1"], {}),
    # plane-curve commands off their hypotheses: a surface (the 105-element
    # closure of exa6's g is never built), a closure element that does not
    # preserve X, a non-abelian group
    *((["rh-genus", f"{{data}}/{name}.json", "--group", "g"], {}) for name in ("exa4", "exa6")),
    *((["classify-cyclic", f"{{data}}/{name}.json", "--aut", "g"], {}) for name in ("exa3", "exa4")),
    (["rh-genus", "{dir}/inst.json", "--group", "g1"], {"polynomial": "x0^4 + x0*x1^3 + x2^4"}),
    (["corpus-run", "{dir}"], {
        "automorphisms": {"s": [[0, 1, 0], [1, 0, 0], [0, 0, 1]], "t": [[1, 0, 0], [0, 0, 1], [0, 1, 0]]},
        "groups": {"S": ["s", "t"]}, "expect": {"abelian_check": {"group": "S", "verdict": "pass"}}}),
    # a singular X, where the Galois-point theorems do not apply: a cone,
    # a reducible quartic, and a cone surface with too many outer points
    (["galois-detect", "{dir}/inst.json", "--aut", "g"], CONE),
    (["corpus-run", "{dir}"], CONE),
    (["galois-detect", "{dir}/inst.json", "--aut", "g"],
     {"field": 3, "polynomial": "x0*x1^3 + x0*x2^3 + x0^4",
      "automorphisms": {"g": [["z(3)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}}),
    (["count-points", *POLY, "--nvars", "4", "--candidates", "{dir}/cone-points.json"], {}),
    # an integer literal that int() refuses: past the digit limit ("{big}" is
    # BIG), in text and in JSON, or written with a digit such as '²'
    (["check-smooth", "--poly", "{big}*x0^4 + x1^4 + x2^4"], {}),
    (["galois-at-point", "{data}/ex1-fermat.json", "--coords", "{big},1,0"], {}),
    (["check-smooth", "{dir}/big-poly.json"], {}),
    (["galois-at-point", "{dir}/big-point.json", "--point", "e0"], {}),
    (["count-points", "{data}/ex1-fermat.json", "--candidates", "{dir}/big-candidates.json"], {}),
    (["check-smooth", "--poly", "x0^\u00b2 + x1^4 + x2^4"], {}),
    (["galois-at-point", "{data}/ex1-fermat.json", "--point", "e\u00b2"], {}),
    *((argv, {}) for argv in ARGUMENT_ERRORS),
]


def fault_ids(rows):
    """The argv of each row; a repeated argv adds the row's edit."""
    ids = []
    for argv, edit in rows:
        name = " ".join(argv)
        ids.append(f"{name} {json.dumps(edit)}" if name in ids else name)
    return ids


@pytest.mark.parametrize("argv, edit", INPUT_FAULTS, ids=fault_ids(INPUT_FAULTS))
def test_input_fault_exit_two(capsys, tmp_path, argv, edit):
    raw = json.loads((DATA / "ex1-fermat.json").read_text())
    raw.update(edit)
    raw = {k: v for k, v in raw.items() if v is not None}
    (tmp_path / "inst.json").write_text(json.dumps(raw))
    for name, doc in FAULT_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "big-point.json").write_text(with_big_point(raw))
    (tmp_path / "big-poly.json").write_text(json.dumps({**raw, "polynomial": f"{BIG}*x0^4"}))
    (tmp_path / "big-candidates.json").write_text(f"[[{BIG}, 1, 0]]")
    code = main([a.format(data=DATA, dir=tmp_path, big=BIG) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in json.loads(err)
    assert "Traceback" not in err


def test_generator_fault_base_runs(capsys, tmp_path):
    """The generator rows of INPUT_FAULTS edit a valid generator document:
    with a valid edit in place of theirs it runs and exits 0."""
    raw = json.loads((DATA / "ex1-fermat.json").read_text())
    raw.update({"kind": "generator", **NOT_INSTANCE, "count": 1})
    (tmp_path / "gen.json").write_text(json.dumps({k: v for k, v in raw.items() if v is not None}))
    code, doc = run_cli(capsys, "corpus-run", str(tmp_path))
    assert code == 0 and doc["reports"][0]["expectations"] == {"checked": 1, "failures": []}


@pytest.mark.parametrize("argv", ARGUMENT_ERRORS, ids=" ".join)
def test_argument_error_is_one_json_line(capsys, argv):
    code = main([a.format(data=DATA) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and set(json.loads(err)) == {"schema", "error"}


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-smooth", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: galois-scope check-smooth")


@pytest.mark.parametrize("field, poly, same", [
    ("1", "x0^4 + z(2)*x1^4 + x2^4", "x0^4 - x1^4 + x2^4"),
    ("5", "x0^5 + z(10)*x1^5 + x2^5", "x0^5 - z(5)^3*x1^5 + x2^5"),
])
def test_roots_of_order_dividing_lcm_2_n_parse(capsys, field, poly, same):
    """Q(zeta_N) holds zeta_M for every M | lcm(2, N): z(2) over Q is -1, and
    z(10) over Q(zeta_5) is -z(5)^3."""
    for command in (["check-smooth"], ["count-points"]):
        got, want = (run_cli(capsys, *command, "--poly", text, "--field", field)
                     for text in (poly, same))
        assert got == want and got[0] == 0


# -- the CLI contract under mutated corpus instances ------------------------

INSTANCES = {p.stem: raw for p in sorted(DATA.glob("*.json"))
             if (raw := json.loads(p.read_text())).get("kind") == "instance"}
# values past the size limits are in the domain; large values below them are
# not: a conductor near MAX_CONDUCTOR makes cyclo_field run for minutes, and
# no command has a deadline yet
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(allow_nan=True),
    st.sampled_from([10**5 + 1, 10**12, 2**70, 4.0]),
    st.sampled_from(["", "1", "4", "z(3)", "z(0)", "1/0", "x0", "2/3", "z(4)^-1", "-1", "1e3"]),
    st.text(alphabet="xz0123456789()^*/+- .", max_size=12))
values = st.one_of(scalars, st.lists(scalars, max_size=5),
                   st.lists(st.lists(scalars, max_size=5), max_size=5))
names = st.sampled_from(["g", "h", "p", "e0"])


@st.composite
def mutated_instances(draw):
    """A bundled instance with one to three of its fields replaced or edited.

    Points and matrices are mostly well-shaped: coordinates that are small
    numbers or roots of unity, and monomial matrices, which often preserve
    the form, so the detectors run past the parser.
    """
    raw = json.loads(json.dumps(INSTANCES[draw(st.sampled_from(sorted(INSTANCES)))]))
    size = raw["n"] + 2
    roots = [f"z({k})^{j}" for k in range(2, 7) if raw["field"] % k == 0 for j in range(k)]
    entry = st.sampled_from(["0", "1", "-1", "2", "1/2", *roots])

    def monomial_matrix():
        perm = draw(st.permutations(range(size)))
        return [[draw(entry.filter(lambda e: e != "0")) if j == perm[i] else "0"
                 for j in range(size)] for i in range(size)]

    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(["n", "d", "field", "polynomial", "points", "automorphisms"]))
        shaped = draw(st.integers(0, 3))
        if key == "points" and shaped:
            raw[key] = draw(st.dictionaries(
                names, st.lists(entry, min_size=size, max_size=size), max_size=2))
        elif key == "automorphisms" and shaped:
            raw[key] = {draw(names): monomial_matrix() for _ in range(shaped)}
        elif key == "polynomial" and shaped and isinstance(raw.get(key), str):
            text = raw[key]
            i = draw(st.integers(0, len(text)))
            raw[key] = text[:i] + draw(st.text(alphabet="x0123z()^*/+- ", max_size=4)) + \
                text[i + draw(st.integers(0, 3)):]
        elif key in ("n", "d", "field") and shaped and isinstance(raw.get(key), int):
            raw[key] += draw(st.integers(-2, 2))
        elif draw(st.integers(0, 9)) == 0:
            raw.pop(key, None)
        else:
            raw[key] = draw(values)
    return raw


def fuzz_commands(raw):
    """The point, matrix and group commands on the instance's first named
    point and matrix, when it names any, and check-smooth."""
    def first(key, default):
        named = raw.get(key)
        return str(next(iter(named))) if isinstance(named, dict) and named else default

    aut = first("automorphisms", "g")
    return [["galois-at-point", "--point", first("points", "e1")], ["count-points", "--eigen"],
            *([command, "--aut", aut] for command in
              ("galois-detect", "verify-aut", "order", "fix-locus", "classify-cyclic")),
            ["rh-genus", "--group", aut], ["check-smooth", "--deadline", "1"]]


@settings(max_examples=60)
@given(mutated_instances())
def test_cli_contract_on_mutated_instances(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        path.write_text(json.dumps(raw))
        for command, *flags in fuzz_commands(raw):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command, str(path), *flags])
            assert code in (0, 1, 2, 3, 4), (command, code)
            docs = [text for text in (out.getvalue(), err.getvalue()) if text.strip()]
            assert len(docs) == 1, (command, docs)
            assert isinstance(json.loads(docs[0]), dict)
            assert "Traceback" not in docs[0]
