"""Command-line front end: JSON in, JSON or aligned text out.

Exit codes: 0 all checks passed / computation succeeded, 1 a mathematical
check failed (the report names the violated axiom or condition), 2 input
or usage error.  Output is canonically ordered and byte-stable across
runs; all randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import appendix, classify, envelope, nichols
from .braided import MinusOneNotSimple, NotYangBaxter, require_words, split_minpoly
from .brackets import BasisMismatch, Inconsistent, QuadraticLieAlgebra, check_dim1_rigidity, verify_lifted
from .envelope import Unstabilized
from .fields import CharTwo
from .jsonio import (
    InputError,
    field_from_json,
    load_input,
    scalar_from_json,
    tensor_elem_to_json,
)
from .linalg import HypothesisViolated
from .table import table_emit
from .tensoralg import DegreeMismatch

DEFAULT_SEED = 12345

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _read_input(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _emit(report, fmt, out=None):
    if out is None:
        out = sys.stdout
    if fmt == "json":
        out.write(json.dumps(report, sort_keys=True, indent=2))
        out.write("\n")
    else:
        _emit_text(report, out)


def _emit_text(obj, out, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        width = max((len(str(k)) for k in obj), default=0)
        for k in sorted(obj, key=str):
            v = obj[k]
            if isinstance(v, (dict, list)):
                out.write(f"{pad}{k}:\n")
                _emit_text(v, out, indent + 1)
            else:
                out.write(f"{pad}{str(k).ljust(width)}  {v}\n")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                _emit_text(v, out, indent)
                out.write("\n" if indent == 0 else "")
            else:
                out.write(f"{pad}{v}\n")
    else:
        out.write(f"{pad}{obj}\n")


def _load_algebra(args, *, check=True):
    obj = _read_input(args.input)
    thing = load_input(obj, check=check)
    return thing


def cmd_verify(args):
    # verify reports a Yang-Baxter violation instead of refusing the input
    thing = _load_algebra(args, check=False)
    if isinstance(thing, QuadraticLieAlgebra):
        space, q = thing.space, thing
    else:
        space, q = thing, None
    report = {"yang_baxter": space.check_yang_baxter()}
    violated = [] if report["yang_baxter"] else ["yang_baxter"]
    if q is not None:
        rep = verify_lifted(q)
        report.update(rep.as_dict())
        violated.extend(k for k, v in rep.as_dict().items() if not v)
    report["ok"] = not violated
    report["violated"] = sorted(violated)
    _emit(report, args.format)
    return EXIT_OK if not violated else EXIT_CHECK_FAILED


def cmd_classify(args):
    thing = _load_algebra(args)
    if not isinstance(thing, QuadraticLieAlgebra):
        raise InputError("classification needs a bracketed structure ({space, beta})")
    rep = verify_lifted(thing)
    if not rep.ok:
        report = {"ok": False, "violated": sorted(k for k, v in rep.as_dict().items() if not v)}
        _emit(report, args.format)
        return EXIT_CHECK_FAILED
    try:
        res = classify.canonical_form(thing)
    except classify.PreconditionViolated as exc:
        raise InputError(str(exc)) from exc
    out = res.as_dict()
    out["ok"] = True
    _emit(out, args.format)
    return EXIT_OK


def cmd_envelope(args):
    thing = _load_algebra(args)
    report = {}
    if isinstance(thing, QuadraticLieAlgebra):
        q = thing
        rep = verify_lifted(q)
        if not rep.ok:
            _emit({"ok": False, "violated": sorted(k for k, v in rep.as_dict().items() if not v)}, args.format)
            return EXIT_CHECK_FAILED
        split = split_minpoly(q.space)
        pres = envelope.presentation_for(q, split)
        space = q.space
    else:
        space = thing
        pres = envelope.sq_presentation(space)
    trunc = envelope.ideal_truncation(pres, args.degree, args.buffer)
    fil = envelope.filtration_dims(pres, args.degree, trunc=trunc)
    sq = envelope.sq_graded_dims(space, args.degree)
    bg = envelope.bg_conditions(pres)
    pbw = fil == sq
    report.update(
        {
            "relations": [tensor_elem_to_json(r) for r in pres.relations],
            "ideal_slice_dims": trunc.slice_dims,
            "stabilization_buffer": trunc.buffer_used,
            "filtration_dims": fil,
            "sq_graded_dims": sq,
            "bg_conditions": bg,
            "pbw": pbw,
            "coproduct_descends": envelope.coproduct_descends(trunc),
        }
    )
    _emit(report, args.format)
    ok = pbw and bg["I"] and bg["J"] and report["coproduct_descends"]
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_primitives(args):
    thing = _load_algebra(args)
    if isinstance(thing, QuadraticLieAlgebra):
        split = split_minpoly(thing.space)
        pres = envelope.presentation_for(thing, split)
    else:
        pres = envelope.sq_presentation(thing)
    rep = nichols.primitives_of_quotient(pres, args.degree, args.buffer)
    report = {
        "degree_cap": rep.degree_cap,
        "primitive_dim": rep.primitive_space.dim,
        "levels": {
            str(lvl): [tensor_elem_to_json(e) for e in elems]
            for lvl, elems in sorted(rep.levels.items())
        },
        "primitives_equal_generators": rep.verdict,
    }
    _emit(report, args.format)
    return EXIT_OK


def cmd_nichols_check(args):
    thing = _load_algebra(args)
    space = thing.space if isinstance(thing, QuadraticLieAlgebra) else thing
    require_words(space.dim, args.degree, nichols.MAX_SYMMETRIZER_WORDS, "nichols-check")
    dims = envelope.sq_graded_dims(space, args.degree)
    ranks = [nichols.symmetrizer_rank(space, n) for n in range(args.degree + 1)]
    ok = ranks == dims
    report = {
        "degrees": list(range(args.degree + 1)),
        "symmetrizer_ranks": ranks,
        "sq_graded_dims": dims,
        "quadratic_at_truncation": ok,
    }
    _emit(report, args.format)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_table(args):
    field = field_from_json(args.field)
    gamma = None
    if args.gamma is not None:
        raw = args.gamma
        try:
            raw = int(raw)
        except ValueError:
            pass
        gamma = scalar_from_json(field, raw)
    rows = table_emit(field, gamma)
    report = {"field": args.field, "rows": [r.as_dict() for r in rows]}
    _emit(report, args.format)
    return EXIT_OK


def cmd_search(args):
    field = field_from_json(args.field)
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise InputError(f"--jobs must lie between 1 and the CPU count {cpus}, got {args.jobs}")
    if args.scope == "udu":
        ok = appendix.udu_check(field, count=args.samples, seed=args.seed)
        _emit({"scope": "udu", "samples": args.samples, "ok": ok}, args.format)
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    if args.scope == "case_families":
        reports = appendix.case_families(field, jobs=args.jobs)
        out = {
            name: {
                "braidings": rep.braidings,
                "candidates": rep.candidates,
                "solutions": rep.solutions,
            }
            for name, rep in sorted(reports.items())
        }
        ok = all(not rep.solutions for rep in reports.values())
        _emit({"scope": "case_families", "branches": out, "all_empty": ok}, args.format)
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    if args.scope == "random_survey":
        rep = appendix.random_survey(field, seed=args.seed, max_brackets_per_braiding=args.samples)
        report = {
            "scope": "random_survey",
            "braidings_tried": rep.braidings_tried,
            "brackets_checked": rep.brackets_checked,
            "verified": rep.verified,
            "rank2_found": rep.rank2_found,
            "rank2_outside_hypothesis": rep.rank2_outside_hypothesis,
            "rank2_conclusions_hold": rep.rank2_conclusions_hold,
            "rank2_instances": rep.rank2_instances,
        }
        _emit(report, args.format)
        return EXIT_OK if rep.rank2_conclusions_hold else EXIT_CHECK_FAILED
    if args.scope == "dim1_rigidity":
        ok = check_dim1_rigidity(field)
        _emit({"scope": "dim1_rigidity", "field": args.field, "ok": ok}, args.format)
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    raise InputError(f"unknown scope {args.scope!r}")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="quadlie",
        description="Exact verification and classification of quadratic Lie algebras on braided vector spaces.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="input JSON file, or - for stdin")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("verify", help="check Yang-Baxter and the bracket axioms")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="normalize onto the canonical table")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("envelope", help="relations, filtration dimensions, PBW certificate")
    common(p)
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--buffer", type=int, default=2)
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("primitives", help="primitives of the truncated quotient")
    common(p)
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--buffer", type=int, default=2)
    p.set_defaults(func=cmd_primitives)

    p = sub.add_parser("nichols-check", help="symmetrizer ranks against quadratic dimensions")
    common(p)
    p.add_argument("--degree", type=int, default=4)
    p.set_defaults(func=cmd_nichols_check)

    p = sub.add_parser("table", help="emit the canonical classification table")
    common(p, needs_input=False)
    p.add_argument("--field", default="Q")
    p.add_argument("--gamma", default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("search", help="exhaustive and sampled verification sweeps")
    common(p, needs_input=False)
    p.add_argument("--field", required=True)
    p.add_argument(
        "--scope",
        required=True,
        choices=("udu", "case_families", "random_survey", "dim1_rigidity"),
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_search)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (
        CharTwo,
        NotYangBaxter,
        MinusOneNotSimple,
        Unstabilized,
        HypothesisViolated,
        BasisMismatch,
        Inconsistent,
        DegreeMismatch,
        classify.InternalContradiction,
    ) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (InputError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
