"""Appendix-grade exhaustive checks over small prime fields.

Turns the eliminated branches of the classification into executable
emptiness assertions: every parametrized (c, b) shape of an eliminated
case is enumerated exhaustively and the full axiom system is required to
have no solutions.  Also the all-ones-matrix trace identity used by the
rank-two analysis, and a survey that harvests verified rank-two brackets
and checks the forced conclusion Ker b = Im(c + Id) on each.

Enumeration hot paths run on plain integer residues: each braiding's
candidates are tested by one ``brackets.axiom_check`` of its space.
The braidings of each shape family are solved for, not searched: the
Yang-Baxter equation (and, for the rank-two family, the rank of c + Id)
is written once as integer polynomials in the shape's parameters, which
are then fixed one at a time mod p by backtracking.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import combinations, compress, product
from math import prod

from .braided import (
    BraidedSpace,
    MinusOneNotSimple,
    braid_relation_holds,
    diagonal_braiding,
    lift_columns,
    per_space,
    split_minpoly,
)
from .brackets import axiom_check, bracket_combination, solve_linear_bracket_space
from .fields import Field
from .linalg import Mat, SparseEchelon, column_space, kernel, null_space, raw_product
from .table import GAMMA_RULES, gamma_allowed, row_instance


#: Largest p accepted by the exhaustive case families (p^8 braiding shapes
#: per family, solved for by backtracking; GF(7) takes about 25 s).
CASE_FAMILIES_MAX_P = 7

#: Largest p accepted by the survey (p^6 corner shapes and p^4 diagonal
#: braidings, each diagonal one solved for its linear bracket space).
SURVEY_MAX_P = 11

#: Largest sample count of the trace identity check (about 0.2 ms a sample).
UDU_MAX_SAMPLES = 100_000


def _require_at_most(value, limit, what):
    """Reject a loop bound above its limit before the loop starts."""
    if value > limit:
        raise ValueError(f"{what} {value} exceeds the limit {limit}")


def _require_at_least(value, limit, what):
    """Reject a loop bound below its limit before the loop starts."""
    if value < limit:
        raise ValueError(f"{what} {value} is below the minimum {limit}")


class _IntBraiding:
    #: The sweep re-checks each braiding of a shape family through this
    #: name; bench/tracing.py counts the braidings that pass here.
    yang_baxter = staticmethod(braid_relation_holds)


@per_space
def _split_or_none(space):
    """split_minpoly of the space, or None also when -1 is a repeated root."""
    try:
        return split_minpoly(space)
    except MinusOneNotSimple:
        return None


# ---------------------------------------------------------------------------
# shape families: the braidings of a template, by backtracking mod p
# ---------------------------------------------------------------------------
#
# A template is a 4x4 braiding shape whose entries are integer constants or
# parameter names.  The parameters are numbered in row-major order of first
# appearance, the order in which each family enumerates them.  A polynomial
# in the parameters is a dict {monomial: integer coefficient}, a monomial
# the sorted tuple of the parameter numbers it multiplies.

def _poly_mul(a, b):
    out = {}
    for (m1, x), (m2, y) in product(a.items(), b.items()):
        m = tuple(sorted(m1 + m2))
        out[m] = out.get(m, 0) + x * y
    return {m: x for m, x in out.items() if x}


def _poly_add(a, b, scale=1):
    out = dict(a)
    for m, y in b.items():
        out[m] = out.get(m, 0) + scale * y
    return {m: x for m, x in out.items() if x}


def _template_polys(template):
    """The template's entries as polynomials, and its parameter names."""
    names = list(dict.fromkeys(x for row in template for x in row if isinstance(x, str)))
    rows = [[{(names.index(x),): 1} if isinstance(x, str) else {(): x} if x else {} for x in row] for row in template]
    return rows, names


def _equation(poly):
    """A hashable form of the polynomial equation poly = 0, its sign fixed
    so that an equation and its negative coincide."""
    terms = sorted(poly.items())
    sign = 1 if terms[0][1] > 0 else -1
    return tuple((m, sign * x) for m, x in terms)


@lru_cache(maxsize=None)
def _yang_baxter_equations(template):
    """The entries of c1 c2 c1 - c2 c1 c2 on V^(x)3 for the template c, as
    polynomial equations in its parameters: they vanish mod p exactly on
    the template's braidings over GF(p)."""
    rows, _ = _template_polys(template)
    c1, c2 = (lift_columns(rows, slot, 3, 2, 2) for slot in (1, 2))

    def apply(cols, vec):
        out = {}
        for k, x in vec.items():
            for o, v in cols[k]:
                out[o] = _poly_add(out.get(o, {}), _poly_mul(x, v))
        return out

    equations = []
    for k in range(8):
        e = {k: {(): 1}}
        left, right = apply(c1, apply(c2, apply(c1, e))), apply(c2, apply(c1, apply(c2, e)))
        for o in sorted(left.keys() | right.keys()):
            diff = _poly_add(left.get(o, {}), right.get(o, {}), -1)
            if diff and _equation(diff) not in equations:
                equations.append(_equation(diff))
    return tuple(equations)


@lru_cache(maxsize=None)
def _rank_one_plus_identity_equations(template):
    """The 2x2 minors of c + Id for the template c: they vanish exactly when
    dim Im(c + Id) <= 1."""
    rows, _ = _template_polys(template)
    m = [[_poly_add(x, {(): 1}) if i == j else x for j, x in enumerate(row)] for i, row in enumerate(rows)]
    equations = []
    for (r1, r2), (k1, k2) in product(combinations(range(4), 2), repeat=2):
        minor = _poly_add(_poly_mul(m[r1][k1], m[r2][k2]), _poly_mul(m[r1][k2], m[r2][k1]), -1)
        if minor and _equation(minor) not in equations:
            equations.append(_equation(minor))
    return tuple(equations)


@lru_cache(maxsize=None)
def _solving_plan(equations, k):
    """(order, levels): the k parameters in the order they are fixed, those
    in the most equations first (ties in parameter order), and for each
    depth d the equations whose last parameter fixed is order[d], shortest
    first, each as its coefficients of order[d]^0, order[d]^1, ...: lists
    of (integer, monomial in the parameters fixed before it).  A constant
    equation is checked at depth 0."""
    occurs = [sum(any(i in m for m, _ in eq) for eq in equations) for i in range(k)]
    order = sorted(range(k), key=lambda i: (-occurs[i], i))
    depth = {i: d for d, i in enumerate(order)}
    levels = [[] for _ in range(k)]
    for eq in sorted(equations, key=len):
        d = max((depth[i] for m, _ in eq for i in m), default=0)
        x = order[d]
        coeffs = [[] for _ in range(1 + max(m.count(x) for m, _ in eq))]
        for m, a in eq:
            coeffs[m.count(x)].append((a, tuple(i for i in m if i != x)))
        levels[d].append(coeffs)
    return order, levels


def _template_points(template, equations, p):
    """The template's matrices over GF(p) on which every equation vanishes,
    in the order of product(range(p), repeat=k) over its k parameters.

    The parameters are fixed one at a time: each equation is solved for its
    last parameter as soon as all the others in it are fixed, so a partial
    assignment that leaves an equation without a root is not extended.
    The points found are few, and are sorted into parameter order.
    """
    _, names = _template_polys(template)
    k = len(names)
    order, levels = _solving_plan(equations, k)
    vals = [0] * k
    roots = {}  # coefficients mod p -> the set of their roots in range(p)
    points = []

    def allowed(d):
        out = range(p)
        for eq in levels[d]:
            co = tuple(sum(a * prod(map(vals.__getitem__, m)) for a, m in terms) % p for terms in eq)
            r = roots.get(co)
            if r is None:
                r = roots[co] = {v for v in range(p) if sum(a * v**j for j, a in enumerate(co)) % p == 0}
            out = [v for v in out if v in r]
            if not out:
                break
        return out

    def extend(d):
        if d == k:
            points.append(tuple(vals))
            return
        for v in allowed(d):
            vals[order[d]] = v
            extend(d + 1)

    extend(0)
    for point in sorted(points):
        yield tuple(tuple(point[names.index(x)] if isinstance(x, str) else x % p for x in row) for row in template)


# ---------------------------------------------------------------------------
# the all-ones trace identity
# ---------------------------------------------------------------------------

def udu_identity_holds(field: Field, diag) -> bool:
    """U D U = Tr(D) U for the all-ones 4x4 matrix U, on raw values."""
    p = field.p
    diag = [field.coerce(x) for x in diag]
    u = [[1] * 4 for _ in range(4)]
    d = [[x if i == j else 0 for j in range(4)] for i, x in enumerate(diag)]
    trace = sum(diag) if p is None else sum(diag) % p
    return raw_product(raw_product(u, d, p), u, p) == [[trace] * 4 for _ in range(4)]


def udu_check(field: Field, count: int = 100, seed: int = 0) -> bool:
    _require_at_least(count, 1, "the trace identity: sample count")
    _require_at_most(count, UDU_MAX_SAMPLES, "the trace identity: sample count")
    rng = random.Random(seed)
    for _ in range(count):
        if field.is_rationals:
            diag = [rng.randint(-20, 20) for _ in range(4)]
        else:
            diag = [rng.randrange(field.p) for _ in range(4)]
        if not udu_identity_holds(field, diag):
            return False
    return True


# ---------------------------------------------------------------------------
# case families
# ---------------------------------------------------------------------------

@dataclass
class BranchReport:
    braidings: int = 0
    candidates: int = 0
    solutions: list = dc_field(default_factory=list)


def _sweep(field, shapes, reports, candidates, shard=0, nshards=1):
    """Count the candidate brackets of the braiding shapes into reports.

    A shape that passes the Yang-Baxter filter is a braiding c, and
    candidates(c) maps the branches that count c to their candidate
    brackets.  A candidate that passes the axioms is a solution when -1 is
    a simple root of the minimal polynomial of c, which is split once per
    braiding, at its first axiom survivor.  Only the shard-th of nshards
    contiguous blocks of the shapes is swept, so the reports of the shards,
    merged in shard order, are the report of the whole sweep.
    """
    p = field.p
    shapes = list(shapes)
    for c in shapes[len(shapes) * shard // nshards : len(shapes) * (shard + 1) // nshards]:
        if not _IntBraiding.yang_baxter(c, p):
            continue
        space = BraidedSpace(field, 2, Mat(field, c), check=False)
        holds = axiom_check(space)
        for name, betas in candidates(c).items():
            rep = reports[name]
            rep.braidings += 1
            for beta in betas:
                rep.candidates += 1
                if holds(beta) and _split_or_none(space) is not None:
                    rep.solutions.append({"c": [list(r) for r in c], "beta": [list(r) for r in beta]})
    return reports


_RANK2_TEMPLATE = (
    (-1, "c01", "c02", 0),
    (0, "c11", "c12", 0),
    (0, "c21", "c22", 0),
    (0, "c31", "c32", -1),
)


def _rank2_case_shapes(p):
    """Braidings of the rank-two analysis: dim Im(c+Id) = 1 with both
    x_i (x) x_i in the complement of Im(c+Id)."""
    equations = _yang_baxter_equations(_RANK2_TEMPLATE) + _rank_one_plus_identity_equations(_RANK2_TEMPLATE)
    minus_identity = tuple(tuple(p - 1 if i == j else 0 for j in range(4)) for i in range(4))
    for c in _template_points(_RANK2_TEMPLATE, equations, p):
        if c != minus_identity:  # Im(c + Id) = 0
            yield c


#: The rank-two branches in order, each with the entry (row, column) of the
#: normalized bracket (row1, row2) that decides it: a bracket belongs to
#: the branch of its first nonzero entry among these, if that entry is 1.
_RANK2_BRANCHES = {"case_1": (1, 0), "case_2_1": (0, 3), "case_2_2_1": (1, 1), "case_2_2_2": (1, 2), "case_residual": (1, 3)}


def rank2_case_families(field: Field, shard: int = 0, nshards: int = 1) -> dict:
    """Exhaustively empty the eliminated rank-two branches over GF(p).

    Scale-normalized representatives cover every rank-two bracket, so the
    five branch sweeps jointly prove the dim Im(c+Id) = 1 sub-case has no
    verified structure at all over this field.
    """
    field.require_enumerable(CASE_FAMILIES_MAX_P, "exhaustive case families")
    p = field.p
    coeffs = list(product(range(p), repeat=3))
    independent = []  # [i][j]: coefficient tuples i, j independent; built at the first survivor

    def candidates(c):
        # the brackets with both rows in the left kernel of c + Id, a
        # basis, so rank(r1, r2) is the rank of their coefficients
        if not independent:
            independent.extend([SparseEchelon(field, (a, b)).rank == 2 for b in coeffs] for a in coeffs)
        ck1 = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(c)]
        lk = null_space(field, zip(*ck1), 4)
        rows = [[sum(s * k[j] for s, k in zip(combo, lk)) % p for j in range(4)] for combo in coeffs]
        branches = {name: [] for name in _RANK2_BRANCHES}
        for r1, ok1 in zip(rows, independent):
            for r2 in compress(rows, ok1):
                beta = (r1, r2)
                for name, (i, j) in _RANK2_BRANCHES.items():
                    if x := beta[i][j]:
                        if x == 1:
                            branches[name].append(beta)
                        break
        return branches

    reports = {name: BranchReport() for name in _RANK2_BRANCHES}
    return _sweep(field, _rank2_case_shapes(p), reports, candidates, shard, nshards)


_RANK1_TEMPLATE = (
    (0, "c01", "c02", "c03"),
    (0, 0, "c12", "c13"),
    (0, "c21", 0, "c23"),
    (0, 0, 0, "c33"),
)


def _rank1_case_shapes(p):
    """Braidings of the rank-one analysis (categorical image) with a zero
    corner entry."""
    return _template_points(_RANK1_TEMPLATE, _yang_baxter_equations(_RANK1_TEMPLATE), p)


def rank1_eliminated_branches(field: Field, shard: int = 0, nshards: int = 1) -> dict:
    """The classification proof's eliminated rank-one branches over GF(p):
    zero corner entry with either a moved diagonal, or the antisymmetric
    bracket pair coinciding with a unit diagonal entry."""
    field.require_enumerable(CASE_FAMILIES_MAX_P, "exhaustive case families")
    p = field.p
    zero = (0, 0, 0, 0)

    def candidates(c):
        if c[3][3] != 1:
            return {
                "case_2_1_1": [((0, 0, b12, 1), zero) for b12 in range(p)],
                "case_2_1_2": [((0, 1, b12, b22), zero) for b12 in range(p) for b22 in range(p)],
            }
        return {"case_2_2_1_1": [((0, b, p - b, 1), zero) for b in range(1, p)]}

    reports = {name: BranchReport() for name in ("case_2_1_1", "case_2_1_2", "case_2_2_1_1")}
    return _sweep(field, _rank1_case_shapes(p), reports, candidates, shard, nshards)


def _shard_worker(args):
    family, p, shard, nshards = args
    return family(Field(p), shard, nshards)


def _merge_reports(parts):
    out = {}
    for part in parts:
        for name, rep in part.items():
            acc = out.setdefault(name, BranchReport())
            acc.braidings += rep.braidings
            acc.candidates += rep.candidates
            acc.solutions.extend(rep.solutions)
    return out


def case_families(field: Field, jobs: int = 1) -> dict:
    """All eliminated case families (rank-two and rank-one) over GF(p).

    Each family's braidings split into contiguous blocks, one per worker,
    and the shard reports merge in shard order, so the report does not
    depend on the job count.
    """
    field.require_enumerable(CASE_FAMILIES_MAX_P, "exhaustive case families")
    families = (rank2_case_families, rank1_eliminated_branches)
    if jobs <= 1:
        parts = [family(field) for family in families]
    else:
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            parts = pool.map(_shard_worker, [(family, field.p, s, jobs) for family in families for s in range(jobs)])
    return _merge_reports(parts)


# ---------------------------------------------------------------------------
# survey of verified structures over a prime field
# ---------------------------------------------------------------------------

def _rank2_conclusions(space: BraidedSpace, beta: Mat) -> bool:
    """The forced conclusions on a rank-two bracket beta of a two-dimensional
    space where -1 is a simple root of the minimal polynomial of c:
    Ker beta = Im(c+Id), of dimension 2.  This is the decomposition of
    Ker beta as Im(c+Id) plus Ker beta meet Im h(c), since then
    Im h(c) = Ker(c+Id) meets Im(c+Id) only in 0."""
    im_c1 = column_space(space.c + Mat.identity(space.field, 4))
    return im_c1.dim == 2 and kernel(beta) == im_c1


@dataclass
class SurveyReport:
    braidings_tried: int = 0
    brackets_checked: int = 0
    verified: int = 0
    rank2_found: int = 0
    rank2_outside_hypothesis: int = 0  # -1 not a simple root of the minpoly
    rank2_conclusions_hold: bool = True
    rank2_instances: list = dc_field(default_factory=list)


def _diagonal_braidings(field):
    """All braidings c(x_i (x) x_j) = q_ij x_j (x) x_i over a prime field,
    in the order of (q11, q21, q12, q22).  These satisfy Yang-Baxter
    identically."""
    for q11, q21, q12, q22 in product(range(field.p), repeat=4):
        yield diagonal_braiding(2, [[q11, q12], [q21, q22]])


_CORNER_TEMPLATE = (
    ("a", 0, 0, "g"),
    (0, 0, "q", 0),
    (0, "qi", 0, 0),
    ("h", 0, 0, "b"),
)


def _corner_braidings(field):
    """Swap-type braidings with both corner perturbations."""
    for c in _template_points(_CORNER_TEMPLATE, _yang_baxter_equations(_CORNER_TEMPLATE), field.p):
        yield [list(r) for r in c]


def _survey_braidings(field):
    """The survey's braidings, each once, in sweep order: the diagonal
    ones, the Yang-Baxter corner shapes, then the table rows."""
    braidings = []
    seen = set()

    def add(rows):
        key = tuple(tuple(x % field.p for x in r) for r in rows)
        if key not in seen:
            seen.add(key)
            braidings.append([list(r) for r in key])

    for rows in _diagonal_braidings(field):
        add(rows)
    for rows in _corner_braidings(field):
        add(rows)
    for row in range(1, 9):
        if GAMMA_RULES[row] is None:
            add(row_instance(row, field).space.c.a)
        else:
            for g in range(field.p):
                if gamma_allowed(row, field, g):
                    add(row_instance(row, field, g).space.c.a)
    return braidings


def random_survey(field: Field, seed: int = 0, max_brackets_per_braiding: int = 200) -> SurveyReport:
    """Sweep structured braiding families, harvest verified brackets, and
    check the rank-two conclusion Ker b = Im(c+Id), of dimension 2, on
    every rank-two find b where -1 is a simple root of the minimal
    polynomial."""
    field.require_enumerable(SURVEY_MAX_P, "the survey's braiding families")
    _require_at_least(max_brackets_per_braiding, 1, "the survey: brackets per braiding")
    rng = random.Random(seed)
    report = SurveyReport()
    for rows in _survey_braidings(field):
        report.braidings_tried += 1
        # Yang-Baxter already guaranteed or solved for by _survey_braidings.
        space = BraidedSpace(field, 2, Mat.from_rows(field, rows), check=False)
        basis = solve_linear_bracket_space(space)
        if not basis:
            continue
        holds = axiom_check(space)
        k = len(basis)
        combos = []
        if field.p**k <= max_brackets_per_braiding:
            combos = list(product(range(field.p), repeat=k))
        else:
            seen = set()
            while len(combos) < max_brackets_per_braiding:
                cand = tuple(rng.randrange(field.p) for _ in range(k))
                if cand not in seen:
                    seen.add(cand)
                    combos.append(cand)
        for combo in combos:
            if not any(combo):
                continue
            beta = bracket_combination(combo, basis, field.p)
            report.brackets_checked += 1
            if not holds(beta):
                continue
            report.verified += 1
            mat = Mat(field, beta)
            if column_space(mat).dim != 2:
                continue
            report.rank2_found += 1
            if _split_or_none(space) is None:
                # outside the standing minimal-polynomial hypothesis: the
                # forced conclusions make no claim here, so only record it
                report.rank2_outside_hypothesis += 1
                report.rank2_instances.append(
                    {
                        "c": rows,
                        "beta": beta,
                        "conclusions": None,
                    }
                )
                continue
            ok = _rank2_conclusions(space, mat)
            if not ok:
                report.rank2_conclusions_hold = False
            report.rank2_instances.append(
                {"c": rows, "beta": beta, "conclusions": ok}
            )
    return report
