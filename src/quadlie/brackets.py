"""Quadratic Lie brackets on braided vector spaces.

Two equivalent presentations are implemented: the full bracket
b: V(x)V -> V subject to antisymmetry through the braiding, the two
braiding-compatibility identities, and the Jacobi condition on the
degree-three joint eigenspace; and the restricted bracket defined only
on the degree-two primitives.  When the braiding's minimal polynomial
has -1 as a simple root the two determine each other exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain

from .braided import (
    BraidedSpace,
    MinpolySplit,
    apply_at,
    factor_parts,
    h_of_c,
    join_parts,
    per_space,
    slot_pattern,
    sparse_columns,
    vec_tensor,
)
from .fields import CheckFailed, Field
from .linalg import HypothesisViolated, Mat, SparseEchelon, Subspace, column_space, integral, null_space, solve


class BasisMismatch(CheckFailed, ValueError):
    """Supplied primitive basis is not the canonical one."""


class Inconsistent(CheckFailed, ValueError):
    """Bracket does not vanish on the image of c + Id."""


class QuadraticLieAlgebra:
    """A braided space with a candidate bracket V(x)V -> V (n x n^2 matrix).

    Construction does not validate the bracket axioms; use verify_lifted.
    """

    __slots__ = ("space", "beta")

    def __init__(self, space: BraidedSpace, beta: Mat):
        n = space.dim
        if beta.rows != n or beta.cols != n**2:
            raise ValueError("bracket matrix must be n x n^2")
        if beta.field is not space.field:
            raise ValueError("bracket over the wrong field")
        self.space = space
        self.beta = beta

    @property
    def field(self):
        return self.space.field

    def __eq__(self, other):
        if not isinstance(other, QuadraticLieAlgebra):
            return NotImplemented
        return self.space is other.space and self.beta == other.beta

    def __repr__(self):
        return f"QuadraticLieAlgebra(dim {self.space.dim}, beta {self.beta!r})"


@dataclass(frozen=True)
class LiftedReport:
    antisym: bool
    bracket_left: bool
    bracket_right: bool
    jacobi: bool

    @property
    def ok(self):
        return self.antisym and self.bracket_left and self.bracket_right and self.jacobi

    def as_dict(self):
        return {
            "antisymmetry": self.antisym,
            "bracket_left": self.bracket_left,
            "bracket_right": self.bracket_right,
            "jacobi": self.jacobi,
        }


@per_space
def _linear_echelon(space):
    """The echelon of the linear axiom rows of the space, eliminated once per
    space: a bracket satisfies the linear axioms iff its rows vanish on it.
    It stops reading rows at rank n^3, where every coordinate is a pivot: a
    reduced echelon of a span is canonical, so the rest would leave its n^3
    unit rows as they are (most braidings have no linear bracket)."""
    full = space.dim**3
    ech = SparseEchelon(space.field)
    for row in chain.from_iterable(linear_axiom_rows(space.c.a, space.dim, space.field.p)):
        ech.insert(row)
        if ech.rank == full:
            break
    return ech


@per_space
def _e2bar_integral(space):
    """A basis of the joint (-1)-eigenspace with integer entries (residues
    over GF(p))."""
    return [integral(v)[0] for v in space.e2bar().basis]


def axiom_check(space: BraidedSpace):
    """The four bracket axioms as one test of a bracket given as n rows of
    n^2 integers (residues over GF(p)): the linear echelon's rows vanish on
    it, and Jacobi holds on the joint (-1)-eigenspace, which is read at the
    first bracket that passes.  Take it once per space, call it per bracket."""
    rows = list(_linear_echelon(space).rows.values())
    n, p = space.dim, space.field.p

    def holds(beta):
        return rows_vanish(rows, [x for row in beta for x in row], p) and jacobi_holds(beta, _e2bar_integral(space), n, p)

    return holds


def verify_lifted(q: QuadraticLieAlgebra) -> LiftedReport:
    """Check the four bracket axioms: the linear ones against the space's
    constraint rows, Jacobi on its joint (-1)-eigenspace.  All four are
    homogeneous in b, so over Q they are tested on an integer multiple.
    Each linear group is read only up to its first row that does not vanish."""
    q.field.require_odd_char()
    space = q.space
    p = q.field.p
    n2 = space.dim**2
    flat = integral(x for row in q.beta.a for x in row)[0]
    beta = [flat[r : r + n2] for r in range(0, len(flat), n2)]
    antisym, left, right = linear_axiom_rows(space.c.a, space.dim, p)
    return LiftedReport(
        rows_vanish(antisym, flat, p),
        rows_vanish(left, flat, p),
        rows_vanish(right, flat, p),
        jacobi_holds(beta, _e2bar_integral(space), space.dim, p),
    )


def derived_antisym_plus(q: QuadraticLieAlgebra) -> bool:
    """b (b1 + b2) must kill the Jacobi domain whenever the first two
    axiom groups hold; exposed as an executable consequence check."""
    return jacobi_holds(q.beta.a, q.space.e2bar().basis, q.space.dim, q.field.p, sign=1)


class RestrictedBracket:
    """A bracket defined on the canonical basis of the degree-two primitives."""

    __slots__ = ("space", "e2_basis", "beta_bar")

    def __init__(self, space: BraidedSpace, e2_basis: Subspace, beta_bar: Mat):
        if beta_bar.rows != space.dim or beta_bar.cols != e2_basis.dim:
            raise ValueError("restricted bracket must be n x dim(E2)")
        self.space = space
        self.e2_basis = e2_basis
        self.beta_bar = beta_bar

    @property
    def field(self):
        return self.space.field

    def __eq__(self, other):
        if not isinstance(other, RestrictedBracket):
            return NotImplemented
        return (
            self.space is other.space
            and self.e2_basis == other.e2_basis
            and self.beta_bar == other.beta_bar
        )

    def __repr__(self):
        return f"RestrictedBracket(dim E2 = {self.e2_basis.dim}, matrix {self.beta_bar!r})"


@dataclass(frozen=True)
class QBracketReport:
    bracket: bool
    correctness: bool
    jacobi: bool

    @property
    def ok(self):
        return self.bracket and self.correctness and self.jacobi

    def as_dict(self):
        return {"bracket": self.bracket, "correctness": self.correctness, "jacobi": self.jacobi}


def _bbar_on(q: RestrictedBracket, z, slot):
    """(bbar (x) Id) z for slot 1 and (Id (x) bbar) z for slot 2, z in
    V^(x)3; None when a part of z that bbar acts on leaves the primitive
    space."""
    out = []
    for w in factor_parts(z, q.space.dim, slot):
        coords = q.e2_basis.coords(w)
        if coords is None:
            return None
        out.append(q.beta_bar.apply(coords))
    return join_parts(out, slot)


def verify_qbracket(q: RestrictedBracket) -> QBracketReport:
    """Check the restricted-bracket axioms on explicit bases.

    The two induced braidings between the primitive space and V are the
    composites c1 c2 and c2 c1 restricted to the relevant subspaces,
    applied to each vector through ``apply_at``.
    """
    space = q.space
    space.field.require_odd_char()
    if q.e2_basis != space.e2():
        raise BasisMismatch("expected the canonical echelon basis of the degree-two primitives")
    field, n, p = space.field, space.dim, space.field.p
    e2 = q.e2_basis
    cols = sparse_columns(space.c.a)
    eye = Mat.identity(field, n).a
    images = [(e, q.beta_bar.apply(e2.coords(e))) for e in e2.basis]

    def braid(first, second, z):
        """c_first c_second z, for z a vector of V^(x)3."""
        w = apply_at(cols, first, n, apply_at(cols, second, n, {k: x for k, x in enumerate(z) if x}, p), p)
        return [w.get(k, 0) for k in range(n**3)]

    # c (bbar e (x) x) = (Id (x) bbar) c1 c2 (e (x) x) on E2 (x) V, and
    # c (x (x) bbar e) = (bbar (x) Id) c2 c1 (x (x) e) on V (x) E2
    bracket = all(
        list(space.c.apply(vec_tensor(field, be, x))) == _bbar_on(q, braid(1, 2, vec_tensor(field, e, x)), 2)
        for e, be in images
        for x in eye
    ) and all(
        list(space.c.apply(vec_tensor(field, x, be))) == _bbar_on(q, braid(2, 1, vec_tensor(field, x, e)), 1)
        for e, be in images
        for x in eye
    )

    correctness = True
    jacobi = True
    for z in space.e2bar().basis:
        # (bbar (x) Id - Id (x) bbar) z must lie in E2, and bbar must kill it
        u1 = _bbar_on(q, z, 1)
        u2 = None if u1 is None else _bbar_on(q, z, 2)
        coords = None if u2 is None else e2.coords([a - b for a, b in zip(u1, u2)])
        if coords is None:
            correctness = jacobi = False
        elif any(q.beta_bar.apply(coords)):
            jacobi = False
    return QBracketReport(bracket, correctness, jacobi)


def lift_bracket(q: RestrictedBracket, split: MinpolySplit) -> QuadraticLieAlgebra:
    """Full bracket b = bbar o h(c); the forward half of the bijection."""
    space = q.space
    hc = h_of_c(space, split)
    n = space.dim
    cols = []
    for j in range(n**2):
        coords = q.e2_basis.coords(hc.col(j))
        if coords is None:
            raise HypothesisViolated("image of h(c) does not land in the primitive space")
        cols.append(q.beta_bar.apply(coords))
    beta = Mat(space.field, [[cols[j][r] for j in range(n**2)] for r in range(n)])
    return QuadraticLieAlgebra(space, beta)


def restrict_bracket(q: QuadraticLieAlgebra, split: MinpolySplit) -> RestrictedBracket:
    """The unique restricted bracket with bbar o h(c) = b.

    Consistency needs b to vanish on Im(c + Id) = ker h(c), which is the
    antisymmetry axiom; violations raise Inconsistent.
    """
    space = q.space
    n = space.dim
    if not rows_vanish(linear_axiom_rows(space.c.a, n, space.field.p)[0], [x for row in q.beta.a for x in row], space.field.p):
        raise Inconsistent("bracket does not vanish on the image of c + Id")
    e2 = space.e2()
    hc = h_of_c(space, split)
    cols = []
    for e in e2.basis:
        w = solve(hc, e)
        if w is None:
            raise HypothesisViolated("h(c) does not reach the primitive space")
        cols.append(q.beta.apply(w))
    beta_bar = Mat(space.field, [[cols[a][r] for a in range(len(cols))] for r in range(n)])
    return RestrictedBracket(space, e2, beta_bar)


def image_subalgebra(q: QuadraticLieAlgebra):
    """Restrict the structure to L = Im(b), a categorical subspace.

    Returns the restricted QuadraticLieAlgebra, or None when b = 0.
    Well-definedness of the restriction is a theorem for verified
    brackets, so failures raise HypothesisViolated.
    """
    space = q.space
    field = q.field
    big_l = column_space(q.beta)
    m = big_l.dim
    if m == 0:
        return None
    ybasis = big_l.basis
    pair_vecs = []
    for b in range(m):
        for a in range(m):
            pair_vecs.append(vec_tensor(field, ybasis[a], ybasis[b]))
    emb = Mat(field, [list(col) for col in zip(*pair_vecs)])
    c_cols = []
    beta_cols = []
    for v in pair_vecs:
        cv = space.c.apply(v)
        coords = solve(emb, cv)
        if coords is None:
            raise HypothesisViolated("braiding does not preserve L (x) L")
        c_cols.append(coords)
        bco = big_l.coords(q.beta.apply(v))
        if bco is None:
            raise HypothesisViolated("bracket image escapes L")
        beta_cols.append(bco)
    c_l = Mat(field, [[c_cols[j][i] for j in range(m**2)] for i in range(m**2)])
    beta_l = Mat(field, [[beta_cols[j][i] for j in range(m**2)] for i in range(m)])
    sub = BraidedSpace(field, m, c_l)
    return QuadraticLieAlgebra(sub, beta_l)


def dim1_instance(field: Field, gamma, lam) -> QuadraticLieAlgebra:
    """The one-dimensional candidate with c = (gamma), bracket = (lambda)."""
    c = Mat.from_rows(field, [[gamma]])
    space = BraidedSpace(field, 1, c, check=False)
    return QuadraticLieAlgebra(space, Mat.from_rows(field, [[lam]]))


#: Largest p accepted by check_dim1_rigidity (p^2 candidate brackets).
DIM1_RIGIDITY_MAX_P = 257


def dim1_nonzero_brackets(field: Field):
    """The pairs (gamma, lambda != 0) of residues for which the bracket
    (lambda) on c = (gamma) passes the axioms, with one space and one check
    per gamma.  Any prime p: over GF(2), (1, 1) is the positive control."""
    if field.is_rationals:
        raise ValueError("the rigidity search needs a prime field")
    found = []
    for gamma in range(field.p):
        holds = axiom_check(BraidedSpace(field, 1, Mat(field, [[gamma]]), check=False))
        found.extend((gamma, lam) for lam in range(1, field.p) if holds([[lam]]))
    return found


def check_dim1_rigidity(field: Field) -> bool:
    """Every verified one-dimensional bracket is zero (char != 2).

    Enumerates all (gamma, lambda) over an odd prime field.
    """
    field.require_enumerable(DIM1_RIGIDITY_MAX_P, "the rigidity check's p^2 candidates")
    return not dim1_nonzero_brackets(field)


def linear_axiom_rows(c, n, p=None):
    """The linear bracket axioms as sparse constraint rows on a bracket b.

    A row is a dict coord -> coefficient over the n n^2 coordinates of b,
    b[r][k] at r n^2 + k; b satisfies an axiom iff every row of its group
    vanishes on it.  Returns the three groups: the entries of b (c + Id)
    (antisymmetry), of c b1 - b2 c1 c2 (left compatibility) and of
    c b2 - b1 c2 c1 (right compatibility), with b1 = b (x) Id,
    b2 = Id (x) b, c1 = c (x) Id and c2 = Id (x) c.  c holds raw entries
    (Fractions or ints over Q, p None; integers read mod p over GF(p)).
    The coefficients are integers: over Q the rows are scaled by powers of
    the lcm of c's denominators.  Rows without a nonzero coefficient are
    left out.

    Each group is a generator that builds its rows as they are read, so a
    reader that stops early builds no more, and the columns of c1 c2 or
    c2 c1 are formed, through ``apply_at``, only when its group is first
    read.

    The lifts of b to a slot are read from the ``slot_pattern`` of b's
    shape, whose entry labels are b's coordinates: it says which
    coordinate of b sits at each entry of b1 and b2.
    """
    n2, n3 = n * n, n**3
    # c = C / d with C integral (d = 1 over GF(p)); the rows below are d
    # times antisymmetry and d^2 times the compatibilities, in C
    flat, d = integral([x for row in c for x in row])
    c = [flat[o : o + n2] for o in range(0, n2 * n2, n2)]
    cols = sparse_columns(c)

    def compatibility(near, far):
        """Rows of c b_near - b_far c_near c_far, b_near and b_far the lifts
        of b to the given slots: entry (o, m) has sum_j c[o][j] b_near[j][m]
        minus sum_K b_far[o][K] (c_near c_far)[K][m]."""
        cc = [apply_at(cols, near, n, apply_at(cols, far, n, {m: 1}, p), p) for m in range(n3)]
        near_cols = slot_pattern(n, near, 3, n, n2)
        far_rows = [[] for _ in range(n2)]
        for k, col in enumerate(slot_pattern(n, far, 3, n, n2)):
            for o, e in col:
                far_rows[o].append((k, e))
        for o in range(n2):
            for m in range(n3):
                row = {e: d * c[o][j] for j, e in near_cols[m]}
                for k, e in far_rows[o]:
                    if y := cc[m].get(k):
                        row[e] = row.get(e, 0) - y
                yield row

    antisym = ({r * n2 + k: c[k][j] + d * (k == j) for k in range(n2)} for r in range(n) for j in range(n2))
    groups = (antisym, compatibility(1, 2), compatibility(2, 1))
    return tuple((r for r in rows if any(r.values())) for rows in groups)


def rows_vanish(rows, flat, p=None):
    """Whether every sparse row has zero dot product with the raw vector
    flat (exactly over Q, p None; mod p over GF(p))."""
    for row in rows:
        s = sum(x * flat[k] for k, x in row.items())
        if s if p is None else s % p:
            return False
    return True


def jacobi_holds(beta, e2bar, n, p=None, sign=-1):
    """Whether b (b1 - b2) (b (b1 + b2) for sign 1) vanishes on the raw
    vectors e2bar of V^(x)3, for a bracket b given as n raw rows, with
    b1 = b (x) Id and b2 = Id (x) b applied through ``apply_at``."""
    cols = sparse_columns(beta)
    for v in e2bar:
        v = {k: x for k, x in enumerate(v) if x}
        w = apply_at(cols, 1, n, v, p, n)
        for k, x in apply_at(cols, 2, n, v, p, n).items():
            w[k] = w.get(k, 0) + sign * x
        if apply_at(cols, 1, n, w, p, n):
            return False
    return True


def solve_linear_bracket_space(space: BraidedSpace):
    """Basis (list of n x n^2 matrices) of brackets satisfying the linear
    axioms: antisymmetry and both braiding-compatibility identities.

    The basis is the canonical echelon basis of the null space of
    ``linear_axiom_rows``, read from the space's echelon of them.  The
    Jacobi condition is quadratic and must be filtered afterwards.
    """
    n = space.dim
    field = space.field
    unknowns = n * n**2
    kernel = Subspace(field, unknowns, null_space(field, _linear_echelon(space), unknowns))
    return [Mat(field, [v[r * n**2 : (r + 1) * n**2] for r in range(n)]) for v in kernel.basis]


def diagonal_bracket_basis(q, p=None):
    """The basis of ``solve_linear_bracket_space`` for the diagonal braiding
    c(x_i (x) x_j) = q[i][j] x_j (x) x_i, in closed form, as raw bracket
    rows (exact values over Q, p None; residues over GF(p)).

    Write b_k^ij for the coefficient of x_k in b(x_i (x) x_j).  On
    x_i x_j x_l the left compatibility reads
    sum_k b_k^ij (q_kl - q_il q_jl) x_l x_k = 0, and the right one is its
    mirror, so b_k^ij is zero unless q_kl = q_il q_jl and q_lk = q_li q_lj
    for every l.  Antisymmetry reads b_k^ij = -q_ij b_k^ji: for i < j the
    pair is free iff q_ij q_ji = 1, with 1 at x_j x_i and -q_ij at x_i x_j,
    and b_k^ii is free iff q_ii = -1.  The vectors have disjoint supports,
    so ordered by their lowest coordinate, where each is 1, they are the
    reduced echelon basis.
    """
    n = len(q)

    def equal(x, y):
        return x == y if p is None else (x - y) % p == 0

    def neg(x):
        return -x if p is None else -x % p

    vectors = []
    for i in range(n):
        for j in range(i, n):
            if i == j:
                free = equal(q[i][i], -1)
            else:
                free = equal(q[i][j] * q[j][i], 1)
            if not free:
                continue
            for k in range(n):
                if all(equal(q[k][l], q[i][l] * q[j][l]) and equal(q[l][k], q[l][i] * q[l][j]) for l in range(n)):
                    # x_i (x) x_j is the basis word i + n j of V (x) V
                    vec = {k * n * n + j + n * i: 1}
                    if i != j:
                        vec[k * n * n + i + n * j] = neg(q[i][j])
                    vectors.append(vec)
    vectors.sort(key=min)
    return [[[v.get(r * n * n + w, 0) for w in range(n * n)] for r in range(n)] for v in vectors]


def random_verified_brackets(space: BraidedSpace, count: int, seed: int, max_tries: int = 10000):
    """Deterministically sample verified brackets on a prime-field space.

    Draws random coefficient combinations of the linear solution space and
    keeps those passing the full axiom check.
    """
    field = space.field
    if field.is_rationals:
        raise ValueError("sampling needs a prime field")
    basis = solve_linear_bracket_space(space)
    rng = random.Random(seed)
    found = []
    if not basis:
        return found
    holds = axiom_check(space)
    for _ in range(max_tries):
        if len(found) >= count:
            break
        beta = bracket_combination([rng.randrange(field.p) for _ in basis], basis, field.p)
        if holds(beta):
            found.append(QuadraticLieAlgebra(space, Mat(field, beta)))
    return found


def bracket_combination(coeffs, basis, p):
    """The rows of sum_i coeffs[i] basis[i] as residues mod p, for brackets
    given as Mats over GF(p)."""
    terms = [(s, b.a) for s, b in zip(coeffs, basis) if s]
    return [[sum(s * b[r][k] for s, b in terms) % p for k in range(basis[0].cols)] for r in range(basis[0].rows)]
