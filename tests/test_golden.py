"""Pinned CLI documents: stdout and exit code of a fixed command matrix.

The pins in tests/golden/ were captured before the CLI was rebuilt on the
corpus report builder; every command must still print the same bytes and
exit with the same code.  Recapture (only on purpose) with

    PYTHONPATH=src python tests/test_golden.py

which rewrites tests/golden/cli.json and tests/golden/corpus/*.json.
"""
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from galois_scope.cli import main
from galois_scope.corpus import bundled_corpus_dir, corpus_paths, run_one

GOLDEN = Path(__file__).parent / "golden"
DATA = bundled_corpus_dir()

AUTOMORPHISMS = {
    "ex1-fermat": ["g1", "g2", "h4"],
    "exa1": ["g"],
    "exa4": ["g"],
    "exa5": ["g", "g2", "g3"],
}
POINT_COORDS = {1: ["1,0,-1", "z(8),1,0"], 2: ["1,0,0,-1", "1,1,0,0"]}
FERMAT = ["--poly", "x0^4 + x1^4 + x2^4", "--nvars", "3", "--field", "1"]


def command_matrix() -> list[list[str]]:
    """Argument vectors; a leading instance name stands for its bundled file."""
    cmds = []
    for inst, auts in AUTOMORPHISMS.items():
        for aut in auts + ["nope"]:
            for cmd in ("verify-aut", "order", "galois-detect", "fix-locus"):
                cmds.append([cmd, inst, "--aut", aut])
    for aut in ("g", "h", "nope"):
        for cmd in ("verify-aut", "order", "galois-detect"):
            cmds.append([cmd, "exa3", "--aut", aut])
    for inst, aut in (("ex1-fermat", "h4"), ("ex1-fermat", "g1"), ("exa1", "g")):
        cmds.append(["classify-cyclic", inst, "--aut", aut])
    for inst in AUTOMORPHISMS:
        n = 1 if inst in ("ex1-fermat", "exa1") else 2
        for pt in ("e0", "e1", "e2", "nope"):
            cmds.append(["galois-at-point", inst, "--point", pt])
        for coords in POINT_COORDS[n]:
            cmds.append(["galois-at-point", inst, "--coords", coords])
    for inst in AUTOMORPHISMS:
        cmds.append(["count-points", inst])
        cmds.append(["count-points", inst, "--eigen"])
    cmds.append(["count-points"] + FERMAT)
    cmds.append(["count-points"] + FERMAT + ["--eigen"])
    for group in ("G", "g1,g2", "g1,h4", "nope"):
        for cmd in ("group-closure", "rh-genus"):
            cmds.append([cmd, "ex1-fermat", "--group", group])
    for inst in ("ex1-fermat", "exa1", "exa4", "exa5"):
        cmds.append(["check-smooth", inst])
    cmds.append(["check-smooth", "exa2", "--deadline", "0.000001"])  # expires before the first pair
    cmds.append(["check-smooth"] + FERMAT)
    return cmds


def _argv(cmd: list[str]) -> list[str]:
    if len(cmd) > 1 and not cmd[1].startswith("-"):
        return [cmd[0], str(DATA / f"{cmd[1]}.json")] + cmd[2:]
    return list(cmd)


def run_command(cmd: list[str]) -> dict:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(_argv(cmd))
    return {"exit": code, "stdout": out.getvalue()}


def _key(cmd: list[str]) -> str:
    return " ".join(cmd)


def _pins() -> dict:
    return json.loads((GOLDEN / "cli.json").read_text())


@pytest.mark.parametrize("cmd", command_matrix(), ids=_key)
def test_cli_matches_golden(cmd):
    assert run_command(cmd) == _pins()[_key(cmd)]


def test_golden_covers_matrix():
    assert sorted(_pins()) == sorted(_key(c) for c in command_matrix())


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def capture() -> None:
    pins = {_key(cmd): run_command(cmd) for cmd in command_matrix()}
    (GOLDEN / "cli.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    (GOLDEN / "corpus").mkdir(parents=True, exist_ok=True)
    for path in corpus_paths():
        report = run_one(path)
        (GOLDEN / "corpus" / f"{report['name']}.json").write_text(render_report(report))


if __name__ == "__main__":
    sys.exit(capture())
