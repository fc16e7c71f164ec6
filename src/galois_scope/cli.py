"""Command-line surface: every command prints one JSON document to stdout.

Each command prints `schema` and `command` plus the corpus report section of
the same shape, built by the same function in `corpus.py`.

Exit codes: 0 success, 1 corpus expectation failure (or a corpus-run file
that raised an input error while another gave a report), 2 input error,
3 timeout (smoothness deadline exceeded), 4 internal fault (a theorem-level
check, ConsistencyError or BoundViolation, failed: a bug, not bad input).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .corpus import (
    SCHEMA,
    automorphism_section,
    certificate_json,
    counts_section,
    fixed_locus_json,
    load_instance,
    parse_surface,
    read_json,
    render_point,
    resolve_group,
    resolve_matrix,
    resolve_point,
    rh_section,
    run_corpus,
    smoothness_section,
)
from .errors import INPUT_ERRORS, INTERNAL_FAULTS, GaloisScopeError, ParseError
from .fixlocus import fixed_locus
from .galois import (
    certificate_from_automorphism,
    coordinate_points,
    eigen_candidate_points,
    point_verdict,
)
from .hypersurface import DEFAULT_SMOOTH_DEADLINE, TIMEOUT, verify_automorphism
from .parsing import parse_count, parse_field, parse_point
from .planecurves import DEFAULT_CLOSURE_BOUND, classify_cyclic, group_closure, require_plane_curve
from .projlin import projective_order

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_INPUT = 2
EXIT_TIMEOUT = 3
EXIT_INTERNAL = 4


def _load_surface(args) -> tuple:
    """(instance | None, Hypersurface): from a file or from --poly/--field."""
    if args.instance:
        inst = load_instance(args.instance)
        return inst, inst.surface
    if args.poly:
        if args.nvars < 3:
            raise GaloisScopeError(f"--nvars {args.nvars}: a hypersurface needs at least 3")
        return None, parse_surface(args.poly, args.nvars - 2, parse_field(args.field))
    raise GaloisScopeError("an instance file or --poly is required")


def _witness(inst, X, name):
    w = verify_automorphism(X, resolve_matrix(inst, name))
    if w is None:
        raise GaloisScopeError(f"matrix {name!r} does not preserve the hypersurface")
    return w


def cmd_check_smooth(args):
    _, X = _load_surface(args)
    body = smoothness_section(X, args.deadline)
    return body, EXIT_TIMEOUT if body["status"] == TIMEOUT else EXIT_OK


def cmd_verify_aut(args):
    inst, X = _load_surface(args)
    entry, _ = automorphism_section(X, resolve_matrix(inst, args.aut))
    return {"automorphism": args.aut, **entry}


def cmd_order(args):
    inst, _ = _load_surface(args)
    return {"automorphism": args.aut, "order": projective_order(resolve_matrix(inst, args.aut))}


def cmd_fix_locus(args):
    inst, X = _load_surface(args)
    rep = fixed_locus(X, _witness(inst, X, args.aut))
    return {"automorphism": args.aut, "fixed_locus": fixed_locus_json(rep)}


def cmd_galois_detect(args):
    inst, X = _load_surface(args)
    cert = certificate_from_automorphism(X, _witness(inst, X, args.aut))
    return {"automorphism": args.aut, "certificate": certificate_json(cert)}


def cmd_galois_at_point(args):
    inst, X = _load_surface(args)
    if args.point:
        p = resolve_point(inst, X, args.point)
    elif args.coords:
        p = parse_point(args.coords.split(","), X.field, X.n + 2)
    else:
        raise GaloisScopeError("--point or --coords is required")
    return {"point": render_point(p), "verdict": point_verdict(X, p)}


def cmd_classify_cyclic(args):
    inst, X = _load_surface(args)
    rows = classify_cyclic(X, _witness(inst, X, args.aut))
    return {
        "automorphism": args.aut,
        "rows": [{"row": r.row, "n_fixed": r.n_fixed, "divisor": r.divisor} for r in rows],
    }


def cmd_group_closure(args):
    inst, _ = _load_surface(args)
    G = group_closure(resolve_group(inst, args.group), bound=args.bound)
    return {"group": args.group, "order": G.order, "abelian": G.abelian, "cyclic": G.cyclic}


def cmd_rh_genus(args):
    inst, X = _load_surface(args)
    require_plane_curve(X, "quotient genus")  # before the closure, which may take minutes
    G = group_closure(resolve_group(inst, args.group), bound=args.bound)
    return rh_section(X, G, args.group)


def cmd_count_points(args):
    if args.candidates and args.eigen:
        raise GaloisScopeError("--candidates and --eigen cannot be combined")
    inst, X = _load_surface(args)
    if args.candidates:
        coords = read_json(args.candidates)
        if not isinstance(coords, list):
            raise ParseError("--candidates must hold a JSON list of points")
        cands = [parse_point(c, X.field, X.n + 2) for c in coords]
    elif args.eigen and inst is not None:
        # as in the corpus counts: eigenpoints of the matrices that verify
        ws = (verify_automorphism(X, A) for A in inst.automorphisms.values())
        cands = eigen_candidate_points(X, [w for w in ws if w is not None])
    else:
        cands = coordinate_points(X)
    return counts_section(X, cands)


def _matrix_row(r: dict) -> dict:
    """The pass/fail row of a report, or the failed row of a file that raised an input error."""
    if r["kind"] == "error":
        failures, checked = [f"input error: {r['error']}"], 0
    else:
        failures, checked = r["expectations"]["failures"], r["expectations"]["checked"]
    return {"name": r["name"], "checked": checked, "failures": failures,
            "status": "fail" if failures else "pass"}


def cmd_corpus_run(args):
    results = run_corpus(args.directory, jobs=args.jobs,
                         smooth_deadline=args.deadline, seed=args.seed)
    if not results:  # a missing directory or a file globs to no paths either
        raise GaloisScopeError(f"{args.directory}: not a directory holding *.json files")
    reports = [r for r in results if r["kind"] == "report"]
    if not reports:  # nothing ran: an input error, as for a single file
        raise GaloisScopeError(f"{results[0]['name']}: {results[0]['error']}")
    matrix = [_matrix_row(r) for r in results]
    failed = any(m["failures"] for m in matrix)
    body = {"matrix": matrix, "reports": reports, "status": "fail" if failed else "pass"}
    return body, EXIT_ASSERTION if failed else EXIT_OK


INSTANCE_ARGS = [
    ("instance", {"nargs": "?", "help": "instance JSON file"}),
    ("--poly", {"help": "inline polynomial text instead of an instance file"}),
    ("--field", {"type": int, "default": 1, "help": "conductor N for --poly"}),
    ("--nvars", {"type": int, "default": 3, "help": "variable count for --poly"}),
]
AUT_ARGS = [("--aut", {"required": True})]
GROUP_ARGS = [
    ("--group", {"required": True, "help": "group name or comma-separated generators"}),
    ("--bound", {"type": int, "default": DEFAULT_CLOSURE_BOUND}),
]

# name, function, help, arguments besides INSTANCE_ARGS (corpus-run takes none of those)
COMMANDS = [
    ("check-smooth", cmd_check_smooth, "certify smoothness via the Jacobian criterion",
     [("--deadline", {"type": float, "default": DEFAULT_SMOOTH_DEADLINE,
                   "help": "time budget in seconds"})]),
    ("verify-aut", cmd_verify_aut, "verify a named matrix as an automorphism", AUT_ARGS),
    ("order", cmd_order, "projective order of a named matrix", AUT_ARGS),
    ("fix-locus", cmd_fix_locus, "fixed locus of an automorphism on X", AUT_ARGS),
    ("galois-detect", cmd_galois_detect, "certificate from an automorphism", AUT_ARGS),
    ("galois-at-point", cmd_galois_at_point, "normal-form test at a candidate point",
     [("--point", {"help": "named point or e0/e1/..."}),
      ("--coords", {"help": "comma-separated coordinates"})]),
    ("classify-cyclic", cmd_classify_cyclic, "classification rows of a cyclic automorphism",
     AUT_ARGS),
    ("group-closure", cmd_group_closure, "projective closure of named generators", GROUP_ARGS),
    ("rh-genus", cmd_rh_genus, "quotient genus by a finite group", GROUP_ARGS),
    ("count-points", cmd_count_points, "certified Galois points over a candidate set",
     [("--candidates", {"help": "JSON file with a list of coordinate arrays"}),
      ("--eigen", {"action": "store_true",
                   "help": "candidates = coordinate points + eigenpoints of the instance's "
                           "automorphisms (--poly has none, so it adds no points); "
                           "not with --candidates"})]),
    ("corpus-run", cmd_corpus_run, "run the bundled (or given) corpus of instances",
     [("directory", {"nargs": "?", "help": "directory of instance files"}),
      ("--jobs", {"type": int, "default": 1}),
      ("--deadline", {"type": float, "default": None,
                      "help": "override the per-instance smoothness budget"}),
      ("--seed", {"type": int, "default": None,
                  "help": "override the seed of generator instances"})]),
]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are input errors, which main prints
    as JSON; its subparsers are of the same class."""

    def error(self, message):
        raise GaloisScopeError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="galois-scope",
        description="exact detection and certification of Galois points on smooth hypersurfaces")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, help_text, extra in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        common = [] if fn is cmd_corpus_run else INSTANCE_ARGS
        for flag, kwargs in common + extra:
            p.add_argument(flag, **kwargs)
        p.add_argument("--json-out", help="also write the JSON document to this path")
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        deadline = getattr(args, "deadline", None)
        if deadline is not None and not deadline > 0:  # NaN too, as for expect.smooth_deadline
            raise GaloisScopeError(f"--deadline {deadline}: must be a positive number of seconds")
        for flag in ("jobs", "bound"):
            if hasattr(args, flag):
                parse_count(getattr(args, flag), f"--{flag}")
        out = args.fn(args)
        body, code = out if isinstance(out, tuple) else (out, EXIT_OK)
        text = json.dumps({"schema": SCHEMA, "command": args.command, **body},
                          indent=2, sort_keys=True)
        if args.json_out:  # first, so a path that cannot be written leaves stdout empty
            Path(args.json_out).write_text(text + "\n")
        print(text)
        return code
    except INTERNAL_FAULTS as e:
        print(json.dumps({"schema": SCHEMA, "error": f"internal fault: {e}"}), file=sys.stderr)
        return EXIT_INTERNAL
    except INPUT_ERRORS as e:
        print(json.dumps({"schema": SCHEMA, "error": str(e)}), file=sys.stderr)
        return EXIT_INPUT


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
