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
from dataclasses import asdict

from . import appendix, classify, envelope, nichols
from .braided import require_words, split_minpoly
from .brackets import QuadraticLieAlgebra, check_dim1_rigidity, verify_lifted
from .fields import CheckFailed
from .jsonio import (
    InputError,
    field_from_json,
    load_input,
    scalar_from_arg,
    tensor_elem_to_json,
)
from .table import table_emit

DEFAULT_SEED = 12345

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _read_input(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _emit(report, fmt):
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2))
        sys.stdout.write("\n")
    else:
        _emit_text(report, sys.stdout)


def _text(v):
    """One line's text of a scalar, of an empty container (as in JSON) or
    of a row of scalars (entries separated by spaces)."""
    if isinstance(v, list) and v:
        return " ".join(map(_text, v))
    return json.dumps(v) if v is None or v == [] or v == {} else str(v)


def _emit_text(obj, out, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        width = max((len(str(k)) for k in obj), default=0)
        for k in sorted(obj, key=str):
            v = obj[k]
            if isinstance(v, (dict, list)) and v:
                out.write(f"{pad}{k}:\n")
                _emit_text(v, out, indent + 1)
            else:
                out.write(f"{pad}{str(k).ljust(width)}  {_text(v)}\n")
    elif isinstance(obj, list):
        for v in obj:
            # a row of scalars stays on one line
            if isinstance(v, dict) and v or isinstance(v, list) and any(isinstance(x, (dict, list)) for x in v):
                _emit_text(v, out, indent)
                out.write("\n" if indent == 0 else "")
            else:
                out.write(f"{pad}{_text(v)}\n")
    else:
        out.write(f"{pad}{_text(obj)}\n")


def _violated(checks):
    """The sorted names of the failed checks in a {name: bool} dict."""
    return sorted(k for k, v in checks.items() if not v)


def _axiom_failure(q):
    """The report of a bracket that fails an axiom, or None."""
    violated = _violated(verify_lifted(q).as_dict())
    return {"ok": False, "violated": violated} if violated else None


def _presentation(thing, args):
    """The quadratic presentation of a bracketed structure or of a bare
    space, once the words of length <= degree + buffer + 2 are within
    envelope.MAX_WORDS."""
    bracketed = isinstance(thing, QuadraticLieAlgebra)
    space = thing.space if bracketed else thing
    require_words(space.dim, args.degree + args.buffer + 2, envelope.MAX_WORDS, "ideal truncation")
    return envelope.presentation_for(thing, split_minpoly(space)) if bracketed else envelope.sq_presentation(space)


def cmd_verify(args):
    # verify reports a Yang-Baxter violation instead of refusing the input
    thing = load_input(_read_input(args.input), check=False)
    if isinstance(thing, QuadraticLieAlgebra):
        report = {"yang_baxter": thing.space.check_yang_baxter(), **verify_lifted(thing).as_dict()}
    else:
        report = {"yang_baxter": thing.check_yang_baxter()}
    violated = _violated(report)
    return {**report, "ok": not violated, "violated": violated}, not violated


def cmd_classify(args):
    thing = load_input(_read_input(args.input))
    if not isinstance(thing, QuadraticLieAlgebra):
        raise InputError("classification needs a bracketed structure ({space, beta})")
    failure = _axiom_failure(thing)
    if failure:
        return failure, False
    return {**classify.canonical_form(thing, skip_verification=True).as_dict(), "ok": True}, True


def cmd_envelope(args):
    thing = load_input(_read_input(args.input))
    if isinstance(thing, QuadraticLieAlgebra):
        failure = _axiom_failure(thing)
        if failure:
            return failure, False
    pres = _presentation(thing, args)
    trunc = envelope.ideal_truncation(pres, args.degree, args.buffer)
    fil = envelope.filtration_dims(pres, args.degree, trunc=trunc)
    # a bare space's presentation is the quadratic symmetric algebra's own
    sq = fil if pres.space is thing else envelope.sq_graded_dims(pres.space, args.degree)
    bg = envelope.bg_conditions(pres)
    report = {
        "relations": [tensor_elem_to_json(r) for r in pres.relations],
        "ideal_slice_dims": trunc.slice_dims,
        "stabilization_buffer": trunc.buffer_used,
        "filtration_dims": fil,
        "sq_graded_dims": sq,
        "bg_conditions": bg,
        "pbw": fil == sq,
        "coproduct_descends": envelope.coproduct_descends(trunc),
    }
    return report, report["pbw"] and bg["I"] and bg["J"] and report["coproduct_descends"]


def cmd_primitives(args):
    pres = _presentation(load_input(_read_input(args.input)), args)
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
    return report, True


def cmd_nichols_check(args):
    thing = load_input(_read_input(args.input))
    space = thing.space if isinstance(thing, QuadraticLieAlgebra) else thing
    require_words(space.dim, args.degree, nichols.MAX_SYMMETRIZER_WORDS, "nichols-check")
    dims = envelope.sq_graded_dims(space, args.degree)
    ranks = nichols.nichols_ranks(space, args.degree)
    ok = ranks == dims
    report = {
        "degrees": list(range(args.degree + 1)),
        "symmetrizer_ranks": ranks,
        "sq_graded_dims": dims,
        "quadratic_at_truncation": ok,
    }
    return report, ok


def cmd_table(args):
    field = field_from_json(args.field)
    gamma = None if args.gamma is None else scalar_from_arg(field, args.gamma)
    rows = table_emit(field, gamma)
    return {"field": args.field, "rows": [r.as_dict() for r in rows]}, True


def _search_udu(field, args):
    ok = appendix.udu_check(field, count=args.samples, seed=args.seed)
    return {"samples": args.samples, "ok": ok}, ok


def _search_case_families(field, args):
    reports = appendix.case_families(field)
    ok = not any(rep.solutions for rep in reports.values())
    return {"branches": {name: asdict(rep) for name, rep in reports.items()}, "all_empty": ok}, ok


def _search_random_survey(field, args):
    rep = appendix.random_survey(field, seed=args.seed, max_brackets_per_braiding=args.samples)
    return asdict(rep), rep.rank2_conclusions_hold


def _search_dim1_rigidity(field, args):
    ok = check_dim1_rigidity(field)
    return {"field": args.field, "ok": ok}, ok


#: The search scopes: each maps (field, args) to its report and verdict.
SCOPES = {
    "udu": _search_udu,
    "case_families": _search_case_families,
    "random_survey": _search_random_survey,
    "dim1_rigidity": _search_dim1_rigidity,
}


def cmd_search(args):
    field = field_from_json(args.field)
    report, ok = SCOPES[args.scope](field, args)
    report["scope"] = args.scope
    return report, ok


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
    p.add_argument("--scope", required=True, choices=SCOPES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=cmd_search)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        report, ok = args.func(args)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # a try of its own: an error while writing the report is not an input error
    try:
        _emit(report, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: the verdict stands, and what is still
        # buffered goes to devnull, so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
