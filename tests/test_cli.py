import json

import pytest

from galois_scope import cli
from galois_scope.cli import main
from galois_scope.corpus import bundled_corpus_dir, load_instance, run_one
from galois_scope.errors import BoundViolation, ConsistencyError

DATA = bundled_corpus_dir()
POLY = ["--poly", "x0^4 + x1^4 + x2^4"]


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
    code, doc = run_cli(capsys, "check-smooth", str(DATA / "exa2.json"),
                        "--deadline", "0.005")
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


def test_json_out_writes_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, doc = run_cli(capsys, "verify-aut", str(DATA / "exa1.json"), "--aut", "g",
                        "--json-out", str(out))
    assert code == 0
    assert json.loads(out.read_text()) == doc


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


def test_corpus_run_jobs_parallel(capsys, tmp_path):
    for name in ("exa1.json", "exa4.json"):
        (tmp_path / name).write_text((DATA / name).read_text())
    code, doc = run_cli(capsys, "corpus-run", str(tmp_path), "--jobs", "2")
    assert code == 0
    assert [m["name"] for m in doc["matrix"]] == ["exa1", "exa4"]


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


# each argv ends in exit 2 with a JSON error; "{data}" is the bundled corpus,
# "{dir}" holds inst.json, ex1-fermat.json with the given keys replaced
# (None: removed), and the files of FAULT_FILES
FAULT_FILES = {
    "short.json": [[1, 0, 0], [1, 0]],  # a candidate with 2 coordinates
    "null.json": [[1, None, 0]],
    "number.json": 5,  # candidates not in a list
    "list.json": [1, 0, 0],  # an instance that is not an object
}
INPUT_FAULTS = [
    *(([cmd, *POLY, "--aut", "g"], {}) for cmd in
      ("verify-aut", "order", "fix-locus", "galois-detect", "classify-cyclic")),
    (["rh-genus", *POLY, "--group", "G"], {}),
    (["group-closure", "{data}/ex1-fermat.json", "--group", "g1,nope"], {}),
    (["galois-at-point", "{data}/ex1-fermat.json", "--point", "e3"], {}),
    (["corpus-run", "{dir}"], {"groups": {"G": ["g1", "nope"]}}),
    (["check-smooth", "{dir}/inst.json"], {"polynomial": None}),
    *((["galois-at-point", "{data}/ex1-fermat.json", "--coords", c], {})
      for c in ("1,0", "0,0,0", "1,0,0,0")),
    (["count-points", "{data}/ex1-fermat.json", "--candidates", "{dir}/short.json"], {}),
    (["galois-at-point", "{dir}/inst.json", "--point", "p"], {"points": {"p": [1, 0]}}),
    (["count-points", "{dir}/inst.json"], {"points": {"p": [0, 0, 0]}}),
    (["galois-at-point", "--poly", "x0^3 + x1^3 + x2^3", "--point", "e0"], {}),
    (["count-points", "--poly", "x0^3 + x1^3 + x2^3"], {}),
    (["check-smooth", *POLY, "--field", "0"], {}),
    (["verify-aut", "{dir}/inst.json", "--aut", "g1"], {"field": 0}),
    (["check-smooth", "--poly", "x0^4 + z(0)*x1^4 + x2^4"], {}),
    *((["count-points", "{data}/ex1-fermat.json", "--candidates", f"{{dir}}/{f}"], {})
      for f in ("null.json", "number.json")),
    (["verify-aut", "{dir}/inst.json", "--aut", "null"],
     {"automorphisms": {"null": [[1, None, 0], [0, 1, 0], [0, 0, 1]]}}),
    (["galois-at-point", "{dir}/inst.json", "--point", "nested"],
     {"points": {"nested": [[1], 0, 0]}}),
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
]


@pytest.mark.parametrize("argv, edit", INPUT_FAULTS, ids=[" ".join(a) for a, _ in INPUT_FAULTS])
def test_input_fault_exit_two(capsys, tmp_path, argv, edit):
    raw = json.loads((DATA / "ex1-fermat.json").read_text())
    raw.update(edit)
    raw = {k: v for k, v in raw.items() if v is not None}
    (tmp_path / "inst.json").write_text(json.dumps(raw))
    for name, doc in FAULT_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    code = main([a.format(data=DATA, dir=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in json.loads(err)
    assert "Traceback" not in err
