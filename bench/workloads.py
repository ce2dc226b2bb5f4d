"""Seeded job lists for the quadlie benchmark, and the checks on their output.

Stdlib only.  The eight canonical forms of the classification table are
written out here and moved to seeded bases with exact arithmetic
(``Fraction`` over Q, residues over GF(p)), so the program under test only
ever sees the generated JSON documents.  The same seed gives the same jobs.

A job is a dict ``{"id", "argv", "stdin", "check"}`` (run.py may add the
pinned stdout ``digest``): ``argv`` is passed to
``quadlie.cli.main``, ``stdin`` (a JSON document or None) is what the
command reads for ``--input -``, and ``check`` names the property its JSON
output must have (see ``check_output``).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("envelope_q", "nichols_q", "appendix_gf", "small_jobs")
SIZES = ("full", "tiny")

ROWS = range(1, 9)
UDU_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)
UDU_SAMPLES = range(60, 440, 10)

# Gamma rules of the table (which values are allowed, which are canonical),
# used to pick the canonical parameter of each row over GF(p).
_PARAMETRIC = {3, 4, 6, 7, 8}


def _is_square(g, p):
    return g % p == 0 or pow(g, (p - 1) // 2, p) == 1


def _gamma_ok(row, g, p):
    if row in (3, 4):
        return g in (0, 1) or not _is_square(g, p)
    if row == 6:
        return g not in (0, 1)
    if row == 7:
        return g not in (1, p - 1)
    if row == 8:
        return g == 1 or (g != 0 and not _is_square(g, p))
    raise ValueError(row)


def default_gamma(row, p=None):
    """The table's default parameter: 2 over Q, the least canonical residue over GF(p)."""
    if row not in _PARAMETRIC:
        return None
    if p is None:
        return 2
    return next(g for g in range(p) if _gamma_ok(row, g, p))


def canonical(row, gamma, p=None):
    """(c, beta) of a canonical form as integer/Fraction matrices."""
    g = gamma
    swap = [[0, 0, 1, 0], [0, 1, 0, 0]]  # the middle rows of the flip
    if row == 1:
        c = [[1, 0, 0, 0], *swap, [0, 0, 0, 1]]
    elif row == 2:
        c = [[1, 1, -1, 0], *swap, [0, 0, 0, 1]]
    elif row == 3:
        c = [[-1, 0, 0, g], *swap, [0, 0, 0, 1]]
    elif row == 4:
        c = [[1, 0, 0, g], *swap, [0, 0, 0, -1]]
    elif row == 5:
        c = [[0, 1, 0, 0], *swap, [0, 0, 0, 1]]
    elif row == 6:
        gi = Fraction(1, g) if p is None else pow(g, -1, p)
        c = [[0, 0, 0, 0], [0, 0, g, 0], [0, gi, 0, 0], [0, 0, 0, 1]]
    elif row == 7:
        c = [[g, 0, 0, 0], *swap, [0, 0, 0, 1]]
    elif row == 8:
        c = [[1, 0, 0, g], *swap, [0, 0, 0, 1]]
    else:
        raise ValueError(f"no canonical form {row}")
    if row == 4:
        beta = [[0, 0, 0, 1], [0, 0, 0, 0]]
    elif row == 6:
        beta = [[0, 1, -g, 0], [0, 0, 0, 0]]
    else:
        beta = [[0, 1, -1, 0], [0, 0, 0, 0]]
    return c, beta


# ---------------------------------------------------------------------------
# exact basis changes
# ---------------------------------------------------------------------------

def _matmul(a, b):
    return [[sum(x * y for x, y in zip(r, col)) for col in zip(*b)] for r in a]


def _kron(a):
    """alpha (x) alpha in the tensor-basis order (first factor fastest)."""
    n = len(a)
    return [
        [a[o1][i1] * a[o2][i2] for i2 in range(n) for i1 in range(n)]
        for o2 in range(n)
        for o1 in range(n)
    ]


def _inverse2(a):
    det = Fraction(a[0][0] * a[1][1] - a[0][1] * a[1][0])
    return [[a[1][1] / det, -a[0][1] / det], [-a[1][0] / det, a[0][0] / det]]


# The basis changes used for conjugates: 2x2 integer matrices with entries
# in {-1, 0, 1} and determinant +-1, not diagonal, so that every conjugate
# is dense but its coefficients stay small, over Q and over every GF(p).
ALPHAS = [
    [[a, b], [c, d]]
    for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1) for d in (-1, 0, 1)
    if a * d - b * c in (1, -1) and (b or c)
]


def _pattern(alpha):
    return tuple(x != 0 for r in alpha for x in r)


PATTERNS = sorted({_pattern(a) for a in ALPHAS})


def alphas(rng):
    """The basis changes of one job list: all of ALPHAS, repeated as needed,
    grouped by zero pattern in a fixed order, in a seeded order within a
    pattern.  A conjugate's cost depends mostly on the pattern (up to 3x
    between patterns, 10 to 20 % within one), so a job list that deals them
    to the rows in turn gets the same rows and patterns for every seed, and
    the seed picks the signs."""
    while True:
        for pattern in PATTERNS:
            group = [a for a in ALPHAS if _pattern(a) == pattern]
            rng.shuffle(group)
            yield from group


def conjugate(c, beta, alpha):
    """Transport (c, beta) along alpha: (T c T^-1, alpha beta T^-1), T = alpha (x) alpha."""
    t = _kron(alpha)
    tinv = _kron(_inverse2(alpha))
    return _matmul(_matmul(t, c), tinv), _matmul(_matmul(alpha, beta), tinv)


def _scalar_json(x, p):
    x = Fraction(x)
    if p is not None:
        return x.numerator * pow(x.denominator, -1, p) % p
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def structure_doc(c, beta, p=None):
    """The CLI input document of a bracketed structure."""
    field = "Q" if p is None else f"GF({p})"
    return json.dumps(
        {
            "space": {"field": field, "dim": 2, "c": [[_scalar_json(x, p) for x in r] for r in c]},
            "beta": [[_scalar_json(x, p) for x in r] for r in beta],
        },
        sort_keys=True,
    )


def instance(row, p=None, alpha=None):
    """Input document of a canonical row, conjugated by alpha if given."""
    c, beta = canonical(row, default_gamma(row, p), p)
    if alpha is not None:
        c, beta = conjugate(c, beta, alpha)
    return structure_doc(c, beta, p)


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------

def _job(jid, argv, stdin=None, **check):
    return {"id": jid, "argv": argv, "stdin": stdin, "check": check}


def _field_tag(p):
    return "Q" if p is None else f"GF{p}"


def build_jobs(workload, seed, size="full"):
    """The fixed job list of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(f"{workload}:{seed}")
    tiny = size == "tiny"
    return globals()["_jobs_" + workload](rng, tiny)


def _jobs_envelope_q(rng, tiny):
    rows = (1, 3) if tiny else ROWS
    env_deg, prim_deg, conj_deg = (3, 3, 3) if tiny else (5, 5, 3)
    basis_changes = alphas(rng)
    jobs = []
    for row in rows:
        doc = instance(row)
        jobs.append(_job(f"envelope/row{row}/d{env_deg}", ["envelope", "--input", "-", "--degree", str(env_deg)], doc, cmd="envelope"))
        jobs.append(_job(f"primitives/row{row}/d{prim_deg}", ["primitives", "--input", "-", "--degree", str(prim_deg)], doc, cmd="primitives", field="Q"))
    # Each of the 36 basis changes once, dealt to the rows in turn: the
    # conjugate jobs are the majority, so the median job is one of them.
    perm = [next(basis_changes) for _ in ALPHAS]
    for k, alpha in enumerate(perm[:2] if tiny else perm):
        row = rows[k % len(rows)]
        doc = instance(row, alpha=alpha)
        tag = f"conj{row}.{k // len(rows)}/d{conj_deg}"
        jobs.append(_job(f"envelope/{tag}", ["envelope", "--input", "-", "--degree", str(conj_deg)], doc, cmd="envelope"))
        jobs.append(_job(f"primitives/{tag}", ["primitives", "--input", "-", "--degree", str(conj_deg)], doc, cmd="primitives", field="Q"))
    return jobs


def _jobs_nichols_q(rng, tiny):
    big_rows = () if tiny else (2,)
    deg, conj_deg = 5, (3 if tiny else 4)
    basis_changes = alphas(rng)
    jobs = []
    for row in big_rows:
        jobs.append(_job(f"nichols/row{row}/d{deg}", ["nichols-check", "--input", "-", "--degree", str(deg)], instance(row), cmd="nichols-check"))
    for k in range(1 if tiny else 3):
        for row in ((1, 5) if tiny else ROWS):
            doc = instance(row, alpha=next(basis_changes))
            jobs.append(_job(f"nichols/conj{row}.{k}/d{conj_deg}", ["nichols-check", "--input", "-", "--degree", str(conj_deg)], doc, cmd="nichols-check"))
    return jobs


def _jobs_appendix_gf(rng, tiny):
    survey_seed = rng.randrange(2**31)
    if tiny:
        return [
            _job("survey/GF3", ["search", "--field", "GF(3)", "--scope", "random_survey", "--samples", "5", "--seed", str(survey_seed)], cmd="random_survey"),
            _job("udu/GF5", ["search", "--field", "GF(5)", "--scope", "udu", "--samples", "50", "--seed", str(rng.randrange(2**31))], cmd="scope_ok"),
        ]
    big = [
        _job("case_families/GF3", ["search", "--field", "GF(3)", "--scope", "case_families"], cmd="case_families"),
        _job("survey/GF5", ["search", "--field", "GF(5)", "--scope", "random_survey", "--samples", "100", "--seed", str(survey_seed)], cmd="random_survey"),
    ]
    # The trace identity on 38 seeded batches of random diagonals, over the
    # primes in turn, from 60 to 430 samples (about 10 to 100 ms): enough
    # jobs for a tail latency (at p75 of the 40 jobs), with median and tail
    # among alike jobs of graded size.  The sizes come in a fixed shuffled
    # order, so that a slow spell of the machine does not fall on the jobs
    # of one size range.  They run before, between and after the two searches.
    sizes = random.Random(0).sample(UDU_SAMPLES, len(UDU_SAMPLES))
    small = [
        _job(f"udu/GF{p}/s{n}", ["search", "--field", f"GF({p})", "--scope", "udu", "--samples", str(n), "--seed", str(rng.randrange(2**31))], cmd="scope_ok")
        for p, n in zip(UDU_PRIMES * 3, sizes)
    ]
    third = len(small) // 3
    return small[:third] + big[:1] + small[third:2 * third] + big[1:] + small[2 * third:]


def _jobs_small_jobs(rng, tiny):
    rows = (1, 2, 8) if tiny else ROWS
    basis_changes = alphas(rng)
    # Over Q each of the 36 basis changes once, dealt to the rows in turn;
    # over GF(5) and GF(7) one conjugate of every row.
    instances = [(None, rows[k % len(rows)]) for k in range(len(rows) if tiny else len(ALPHAS))]
    for p in (5,) if tiny else (5, 7):
        instances += [(p, row) for row in rows]
    jobs = []
    for k, (p, row) in enumerate(instances):
        doc = instance(row, p, alpha=next(basis_changes))
        tag = f"{_field_tag(p)}/row{row}.{k}"
        jobs.append(_job(f"verify/{tag}", ["verify", "--input", "-"], doc, cmd="verify"))
        jobs.append(_job(f"classify/{tag}", ["classify", "--input", "-"], doc, cmd="classify", row=row))
        jobs.append(_job(f"envelope/{tag}/d3", ["envelope", "--input", "-", "--degree", "3"], doc, cmd="envelope"))
        jobs.append(_job(f"nichols/{tag}/d3", ["nichols-check", "--input", "-", "--degree", "3"], doc, cmd="nichols-check"))
    for p in (None, 5, 7):
        fld = "Q" if p is None else f"GF({p})"
        jobs.append(_job(f"table/{_field_tag(p)}", ["table", "--field", fld], cmd="table", field=fld))
    return jobs


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_output(check, rc, stdout):
    """None when a job's exit code and JSON output are right, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        out = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    cmd = check["cmd"]
    if cmd == "verify":
        ok = out.get("ok") is True and out.get("yang_baxter") is True
    elif cmd == "classify":
        ok = out.get("ok") is True and out.get("row") == check["row"]
    elif cmd == "envelope":
        bg = out.get("bg_conditions", {})
        ok = out.get("pbw") is True and bg.get("I") is True and bg.get("J") is True and out.get("coproduct_descends") is True
    elif cmd == "primitives":
        ok = check.get("field") != "Q" or out.get("primitives_equal_generators") is True
    elif cmd == "nichols-check":
        ok = out.get("quadratic_at_truncation") is True
    elif cmd == "table":
        ok = out.get("field") == check["field"] and [r.get("row") for r in out.get("rows", [])] == list(ROWS)
    elif cmd == "case_families":
        ok = out.get("all_empty") is True
    elif cmd == "random_survey":
        ok = out.get("rank2_conclusions_hold") is True
    elif cmd == "scope_ok":
        ok = out.get("ok") is True
    else:
        return f"unknown check {cmd!r}"
    return None if ok else f"{cmd} output check failed"


def report_counts(check, stdout):
    """Counts the search reports carry, for the per-layer metrics."""
    cmd = check["cmd"]
    if cmd not in ("case_families", "random_survey"):
        return {}
    out = json.loads(stdout)
    if cmd == "case_families":
        return {"case_families.candidates": sum(b["candidates"] for b in out["branches"].values())}
    return {"random_survey.verified": out["verified"], "random_survey.brackets_checked": out["brackets_checked"]}
