"""Appendix-grade exhaustive checks over small prime fields.

Turns the eliminated branches of the classification into executable
emptiness assertions: every parametrized (c, b) shape of an eliminated
case is enumerated exhaustively and the full axiom system is required to
have no solutions.  Also the all-ones-matrix trace identity used by the
rank-two analysis, and a survey that harvests verified rank-two brackets
and checks the forced conclusion Ker b = Im(c + Id) on each.

Enumeration hot paths run on plain integer residues: each braiding's
candidates are tested by one ``brackets.axiom_check`` of its space.  The
rank-two candidates are counted by linear algebra instead, and only those
that pass the linear axioms are tested.
The braidings of each shape family are solved for, not searched: the
Yang-Baxter equation (and, for the rank-two family, the rank of c + Id)
is written once as integer polynomials in the shape's parameters, which
are then fixed one at a time mod p by backtracking.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import chain, combinations, product
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
from .brackets import _linear_echelon, axiom_check, bracket_combination, diagonal_bracket_basis, solve_linear_bracket_space
from .fields import Field
from .linalg import Mat, column_space, kernel, null_space, raw_product
from .table import GAMMA_RULES, gamma_allowed, row_instance


#: Largest p accepted by the exhaustive case families (p^8 braiding shapes
#: per family, solved for by backtracking, and the rank-two candidates
#: counted by linear algebra; GF(7) takes about 3.5 s).
CASE_FAMILIES_MAX_P = 7

#: Largest p accepted by the survey (p^6 corner shapes and p^4 diagonal
#: braidings, each diagonal one's linear bracket space in closed form).
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


def _sweep(field, shapes, reports, candidates):
    """Count the candidate brackets of the braiding shapes into reports.

    A shape that passes the Yang-Baxter filter is a braiding c, and
    candidates(c, space), for its braided space, maps the branches that
    count c to (count, betas): the number of the branch's candidate
    brackets, and those of them that can pass the axioms, each of which is
    tested.  A candidate that passes the axioms is a solution when -1 is
    a simple root of the minimal polynomial of c, which is split once per
    braiding, at its first axiom survivor.
    """
    p = field.p
    for c in shapes:
        if not _IntBraiding.yang_baxter(c, p):
            continue
        space = BraidedSpace(field, 2, Mat(field, c), check=False)
        holds = axiom_check(space)
        for name, (count, betas) in candidates(c, space).items():
            rep = reports[name]
            rep.braidings += 1
            rep.candidates += count
            for beta in betas:
                if holds(beta) and _split_or_none(space) is not None:
                    rep.solutions.append({"c": [list(r) for r in c], "beta": [list(r) for r in beta]})
    return reports


def _every_candidate(branches):
    """The candidates of a sweep that tests each of its brackets: (count,
    betas) per branch of {name: betas}."""
    return {name: (len(betas), betas) for name, betas in branches.items()}


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


def _pulled_back_null_space(space, lk):
    """A basis of the coefficient vectors (a_1, ..., a_n) whose bracket, of
    rows a_t K for K the rows lk, passes the linear axioms: the rows of the
    space's linear echelon, pulled back from the bracket's coordinates to
    the coefficients."""
    n, n2 = space.dim, space.dim**2
    rows = [
        [sum(row.get(t * n2 + j, 0) * k[j] for j in range(n2)) for t in range(n) for k in lk]
        for row in _linear_echelon(space).rows.values()
    ]
    return null_space(space.field, rows, n * len(lk))


def _scalings(r, conds, p):
    """The number of lambda in GF(p) with lambda r[j] = x for each (j, x) in
    conds: at most one where r is nonzero on conds, else none or all."""
    for j, x in conds:
        if r[j]:
            lam = x * pow(r[j], -1, p) % p
            return int(all(lam * r[k] % p == y for k, y in conds))
    return 0 if any(x for _, x in conds) else p


def _independent(u, v, p):
    """Whether two vectors of GF(p)^3 are linearly independent."""
    return any((u[i] * v[j] - u[j] * v[i]) % p for i, j in ((0, 1), (0, 2), (1, 2)))


def rank2_case_families(field: Field) -> dict:
    """Exhaustively empty the eliminated rank-two branches over GF(p).

    A bracket passes antisymmetry iff its rows lie in the left kernel of
    c + Id, which has a basis k_1, k_2, k_3 here; so it is
    (r1, r2) = (sum a1_s k_s, sum a2_s k_s), of rank two iff a1 and a2 are
    independent.  The deciding entries hold all of r2, which is nonzero
    then, so scaled by its first nonzero deciding entry every rank-two
    bracket is a candidate of exactly one branch, and the five branch
    sweeps jointly prove the dim Im(c+Id) = 1 sub-case has no verified
    structure at all over this field.

    The candidates are counted, not enumerated: a branch fixes its
    deciding entries before its own to 0 and its own to 1, which are
    separate affine conditions on a1 and on a2.  So its count is the sum,
    over each a1 != 0 that meets its conditions, of |S| minus the number
    of lambda with lambda a1 in S, S the affine set of a2.  Only the
    candidates that pass the linear axioms can be solutions: they are the
    independent points of ``_pulled_back_null_space``, each sorted into
    its branch and tested.  Over GF(3), GF(5) and GF(7) that null space is
    {0} on every braiding (54, 202 and 494 of them), so no candidate is
    left to test there.
    """
    field.require_enumerable(CASE_FAMILIES_MAX_P, "exhaustive case families")
    p = field.p
    coeffs = list(product(range(p), repeat=3))
    # per branch, its (column, value) conditions on r1 and on r2
    deciding = list(_RANK2_BRANCHES.values())
    conditions = [
        [[(j, int(d == b)) for d, (i, j) in enumerate(deciding[: b + 1]) if i == t] for t in (0, 1)]
        for b in range(len(deciding))
    ]

    def candidates(c, space):
        ck1 = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(c)]
        lk = null_space(field, zip(*ck1), 4)
        rows = {a: [sum(s * k[j] for s, k in zip(a, lk)) % p for j in range(4)] for a in coeffs}
        out = {}
        for name, (on_r1, on_r2) in zip(_RANK2_BRANCHES, conditions):
            size = sum(all(r[j] == x for j, x in on_r2) for r in rows.values())
            count = sum(
                size - _scalings(r, on_r2, p) for a, r in rows.items() if any(a) and all(r[j] == x for j, x in on_r1)
            )
            out[name] = (count, [])
        # the candidates that pass the linear axioms, in the order of (a1, a2)
        basis = _pulled_back_null_space(space, lk)
        points = {
            tuple(sum(s * v[t] for s, v in zip(combo, basis)) % p for t in range(6))
            for combo in product(range(p), repeat=len(basis))
        }
        for a in sorted(points):
            if not _independent(a[:3], a[3:], p):
                continue
            beta = (rows[a[:3]], rows[a[3:]])
            for name, (i, j) in _RANK2_BRANCHES.items():
                if x := beta[i][j]:
                    if x == 1:
                        out[name][1].append(beta)
                    break
        return out

    reports = {name: BranchReport() for name in _RANK2_BRANCHES}
    return _sweep(field, _rank2_case_shapes(p), reports, candidates)


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


def rank1_eliminated_branches(field: Field) -> dict:
    """The classification proof's eliminated rank-one branches over GF(p):
    zero corner entry with either a moved diagonal, or the antisymmetric
    bracket pair coinciding with a unit diagonal entry."""
    field.require_enumerable(CASE_FAMILIES_MAX_P, "exhaustive case families")
    p = field.p
    zero = (0, 0, 0, 0)

    def candidates(c, space):
        if c[3][3] != 1:
            return _every_candidate({
                "case_2_1_1": [((0, 0, b12, 1), zero) for b12 in range(p)],
                "case_2_1_2": [((0, 1, b12, b22), zero) for b12 in range(p) for b22 in range(p)],
            })
        return _every_candidate({"case_2_2_1_1": [((0, b, p - b, 1), zero) for b in range(1, p)]})

    reports = {name: BranchReport() for name in ("case_2_1_1", "case_2_1_2", "case_2_2_1_1")}
    return _sweep(field, _rank1_case_shapes(p), reports, candidates)


def case_families(field: Field) -> dict:
    """All eliminated case families (rank-two and rank-one) over GF(p)."""
    return {**rank2_case_families(field), **rank1_eliminated_branches(field)}


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
    """(rows, q) of all braidings c(x_i (x) x_j) = q_ij x_j (x) x_i over a
    prime field, in the order of (q11, q21, q12, q22).  These satisfy
    Yang-Baxter identically."""
    for q11, q21, q12, q22 in product(range(field.p), repeat=4):
        q = [[q11, q12], [q21, q22]]
        yield diagonal_braiding(2, q), q


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
    """The survey's braidings, each once, in sweep order, as (rows, q): the
    diagonal ones with their q, then the Yang-Baxter corner shapes and the
    table rows, with q None.  A generator, which keeps only the keys of the
    braidings it has given."""
    seen = set()

    def others():
        yield from _corner_braidings(field)
        for row in range(1, 9):
            if GAMMA_RULES[row] is None:
                yield row_instance(row, field).space.c.a
            else:
                for g in range(field.p):
                    if gamma_allowed(row, field, g):
                        yield row_instance(row, field, g).space.c.a

    for rows, q in chain(_diagonal_braidings(field), ((rows, None) for rows in others())):
        key = tuple(tuple(x % field.p for x in r) for r in rows)
        if key not in seen:
            seen.add(key)
            yield [list(r) for r in key], q


def random_survey(field: Field, seed: int = 0, max_brackets_per_braiding: int = 200) -> SurveyReport:
    """Sweep structured braiding families, harvest verified brackets, and
    check the rank-two conclusion Ker b = Im(c+Id), of dimension 2, on
    every rank-two find b where -1 is a simple root of the minimal
    polynomial."""
    field.require_enumerable(SURVEY_MAX_P, "the survey's braiding families")
    _require_at_least(max_brackets_per_braiding, 1, "the survey: brackets per braiding")
    rng = random.Random(seed)
    report = SurveyReport()
    for rows, q in _survey_braidings(field):
        report.braidings_tried += 1
        # Yang-Baxter already guaranteed or solved for by _survey_braidings,
        # whose rows hold residues
        space = BraidedSpace(field, 2, Mat(field, rows), check=False)
        if q is None:
            basis = solve_linear_bracket_space(space)
        else:
            basis = [Mat(field, b) for b in diagonal_bracket_basis(q, field.p)]
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
