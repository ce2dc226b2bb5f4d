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

from .braided import BraidedSpace, MinpolySplit, h_of_c, lift_to_slot, vec_tensor
from .fields import Field
from .linalg import HypothesisViolated, Mat, Subspace, column_space, null_space, solve


class BasisMismatch(ValueError):
    """Supplied primitive basis is not the canonical one."""


class Inconsistent(ValueError):
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

    def beta1(self) -> Mat:
        """b (x) Id acting on V^(x)3."""
        return lift_to_slot(self.beta, 1, 3, self.space.dim, 2, 1)

    def beta2(self) -> Mat:
        """Id (x) b acting on V^(x)3."""
        return lift_to_slot(self.beta, 2, 3, self.space.dim, 2, 1)

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


def verify_lifted(q: QuadraticLieAlgebra) -> LiftedReport:
    """Check the four bracket axioms by exact matrix identities."""
    q.field.require_odd_char()
    space = q.space
    n = space.dim
    eye2 = Mat.identity(q.field, n**2)
    antisym = (q.beta @ (space.c + eye2)).is_zero()
    c1 = space.braiding_at(1, 3)
    c2 = space.braiding_at(2, 3)
    b1, b2 = q.beta1(), q.beta2()
    bracket_left = space.c @ b1 == b2 @ (c1 @ c2)
    bracket_right = space.c @ b2 == b1 @ (c2 @ c1)
    jac_map = q.beta @ (b1 - b2)
    jacobi = all(not x for v in space.e2bar().basis for x in jac_map.apply(v))
    return LiftedReport(antisym, bracket_left, bracket_right, jacobi)


def derived_antisym_plus(q: QuadraticLieAlgebra) -> bool:
    """b (b1 + b2) must kill the Jacobi domain whenever the first two
    axiom groups hold; exposed as an executable consequence check."""
    m = q.beta @ (q.beta1() + q.beta2())
    return all(not x for v in q.space.e2bar().basis for x in m.apply(v))


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


def _split_first(space, vec):
    """Write z in V^(x)3 as sum_i x_i (x) w_i; returns the list of w_i."""
    n = space.dim
    return [tuple(vec[(i - 1) + n * k] for k in range(n**2)) for i in range(1, n + 1)]


def _split_last(space, vec):
    """Write z in V^(x)3 as sum_i w_i (x) x_i; returns the list of w_i."""
    n = space.dim
    return [tuple(vec[k + n**2 * (i - 1)] for k in range(n**2)) for i in range(1, n + 1)]


def verify_qbracket(q: RestrictedBracket) -> QBracketReport:
    """Check the restricted-bracket axioms on explicit bases.

    The two induced braidings between the primitive space and V are the
    composites c1 c2 and c2 c1 restricted to the relevant subspaces.
    """
    space = q.space
    space.field.require_odd_char()
    if q.e2_basis != space.e2():
        raise BasisMismatch("expected the canonical echelon basis of the degree-two primitives")
    n = space.dim
    field = space.field
    e2 = q.e2_basis
    c1 = space.braiding_at(1, 3)
    c2 = space.braiding_at(2, 3)
    eye = Mat.identity(field, n).a

    def bbar(vec2):
        coords = e2.coords(vec2)
        if coords is None:
            return None
        return q.beta_bar.apply(coords)

    bracket = True
    # Left identity on E2 (x) V.
    for e in e2.basis:
        for j in range(n):
            z = vec_tensor(field, e, tuple(eye[j]))
            lhs = space.c.apply(vec_tensor(field, q.beta_bar.apply(e2.coords(e)), tuple(eye[j])))
            y = (c1 @ c2).apply(z)
            parts = _split_first(space, y)
            rhs = [field.zero] * n**2
            for i, w in enumerate(parts):
                if not any(w):
                    continue
                bw = bbar(w)
                if bw is None:
                    bracket = False
                    break
                for m, s in enumerate(bw):
                    if s:
                        rhs[i + n * m] += s
            else:
                if list(lhs) != rhs:
                    bracket = False
            if not bracket:
                break
        if not bracket:
            break
    # Right identity on V (x) E2.
    if bracket:
        for e in e2.basis:
            for j in range(n):
                z = vec_tensor(field, tuple(eye[j]), e)
                lhs = space.c.apply(vec_tensor(field, tuple(eye[j]), q.beta_bar.apply(e2.coords(e))))
                y = (c2 @ c1).apply(z)
                parts = _split_last(space, y)
                rhs = [field.zero] * n**2
                for i, w in enumerate(parts):
                    if not any(w):
                        continue
                    bw = bbar(w)
                    if bw is None:
                        bracket = False
                        break
                    for m, s in enumerate(bw):
                        if s:
                            rhs[m + n * i] += s
                else:
                    if list(lhs) != rhs:
                        bracket = False
                if not bracket:
                    break
            if not bracket:
                break

    correctness = True
    jacobi = True
    for z in space.e2bar().basis:
        last_parts = _split_last(space, z)
        first_parts = _split_first(space, z)
        u = [field.zero] * n**2
        ok = True
        # (bbar tensor Id)(z): z decomposed with the primitive part leading.
        for i, w in enumerate(last_parts):
            if not any(w):
                continue
            bw = bbar(w)
            if bw is None:
                ok = False
                break
            for m, s in enumerate(bw):
                if s:
                    u[m + n * i] += s
        # minus (Id tensor bbar)(z).
        if ok:
            for i, w in enumerate(first_parts):
                if not any(w):
                    continue
                bw = bbar(w)
                if bw is None:
                    ok = False
                    break
                for m, s in enumerate(bw):
                    if s:
                        u[i + n * m] -= s
        if not ok:
            correctness = False
            jacobi = False
            continue
        coords = e2.coords(tuple(u))
        if coords is None:
            correctness = False
            jacobi = False
            continue
        if any(q.beta_bar.apply(coords)):
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
    eye2 = Mat.identity(space.field, n**2)
    if not (q.beta @ (space.c + eye2)).is_zero():
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


def check_dim1_rigidity(field: Field, exhaustive: bool = True) -> bool:
    """Every verified one-dimensional bracket is zero (char != 2).

    Exhaustive mode enumerates all (gamma, lambda) over a prime field.
    """
    field.require_odd_char()
    if not exhaustive or field.is_rationals:
        raise ValueError("exhaustive rigidity check needs a prime field")
    if field.p > DIM1_RIGIDITY_MAX_P:
        raise ValueError(
            f"the rigidity check: GF({field.p}) exceeds the limit GF({DIM1_RIGIDITY_MAX_P}) of the p^2 enumeration"
        )
    for gamma in field.elements():
        for lam in field.elements():
            q = dim1_instance(field, gamma, lam)
            if verify_lifted(q).ok and lam:
                return False
    return True


def slot_braidings(c, n):
    """c (x) Id and Id (x) c on V^(x)3, as dense lists of the raw entries
    of the n^2 x n^2 matrix c, in the tensor-basis order of braided."""
    n2, n3 = n * n, n**3
    c1 = [[0] * n3 for _ in range(n3)]
    c2 = [[0] * n3 for _ in range(n3)]
    for o in range(n2):
        for i in range(n2):
            v = c[o][i]
            if v:
                for j in range(n):
                    c1[o + n2 * j][i + n2 * j] = v
                    c2[j + n * o][j + n * i] = v
    return c1, c2


def linear_axiom_rows(c, n):
    """The linear bracket axioms as sparse constraint rows on a bracket b.

    A row is a dict coord -> coefficient over the n n^2 coordinates of b,
    b[r][k] at r n^2 + k, and b satisfies antisymmetry and both
    braiding-compatibility identities iff every row vanishes on it.  The
    rows are the entries of b (c + Id), then of c b1 - b2 c1 c2 and of
    c b2 - b1 c2 c1, with b1 = b (x) Id, b2 = Id (x) b, c1 = c (x) Id and
    c2 = Id (x) c.  Coefficients are sums of products of c's raw entries
    (Fractions over Q, integers to be read mod p over GF(p)); rows without
    a nonzero coefficient are left out.
    """
    n2, n3 = n * n, n**3
    c1, c2 = slot_braidings(c, n)

    def product(a, b):
        nonzeros = [[(j, y) for j, y in enumerate(row) if y] for row in b]
        out = []
        for row in a:
            acc = [0] * n3
            for x, nz in zip(row, nonzeros):
                if x:
                    for j, y in nz:
                        acc[j] += x * y
            out.append(acc)
        return out

    c12t, c21t = list(zip(*product(c1, c2))), list(zip(*product(c2, c1)))

    def row(r0, line_k, k0, line_r):
        """Coefficient line_k[k] at b[r0][k] plus line_r[r] at b[r][k0]."""
        out = {r0 * n2 + k: v for k, v in enumerate(line_k) if v}
        for r, v in enumerate(line_r):
            if v:
                out[r * n2 + k0] = out.get(r * n2 + k0, 0) + v
        return out

    # b (c + Id) at (r, j): sum_k b[r][k] (c + Id)[k][j]
    rows = [row(r, [c[k][j] + (k == j) for k in range(n2)], 0, ()) for r in range(n) for j in range(n2)]
    for o in range(n2):
        for m in range(n3):
            # (c b1)[o][k + n^2 i] = sum_r c[o][r + n i] b[r][k] minus
            # (b2 c1 c2)[i0 + n r0][m] = sum_k b[r0][k] (c1 c2)[i0 + n k][m]
            r0, i0 = divmod(o, n)
            i, k0 = divmod(m, n2)
            rows.append(row(r0, [-c12t[m][i0 + n * k] for k in range(n2)], k0, [c[o][r + n * i] for r in range(n)]))
            # (c b2)[o][i + n k] = sum_r c[o][i + n r] b[r][k] minus
            # (b1 c2 c1)[r0 + n i0][m] = sum_k b[r0][k] (c2 c1)[k + n^2 i0][m]
            i0, r0 = divmod(o, n)
            k0, i = divmod(m, n)
            rows.append(row(r0, [-c21t[m][k + n2 * i0] for k in range(n2)], k0, [c[o][i + n * r] for r in range(n)]))
    return [r for r in rows if any(r.values())]


def solve_linear_bracket_space(space: BraidedSpace):
    """Basis (list of n x n^2 matrices) of brackets satisfying the linear
    axioms: antisymmetry and both braiding-compatibility identities.

    The basis is the canonical echelon basis of the null space of
    ``linear_axiom_rows``.  The Jacobi condition is quadratic and must be
    filtered afterwards.
    """
    n = space.dim
    field = space.field
    unknowns = n * n**2
    c = [[x.v for x in row] for row in space.c.a]
    kernel = Subspace(field, unknowns, null_space(field, linear_axiom_rows(c, n), unknowns))
    return [Mat(field, [v[r * n**2 : (r + 1) * n**2] for r in range(n)]) for v in kernel.basis]


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
    for _ in range(max_tries):
        if len(found) >= count:
            break
        coeffs = [field(rng.randrange(field.p)) for _ in basis]
        beta = Mat.zero(field, space.dim, space.dim**2)
        for s, b in zip(coeffs, basis):
            if s:
                beta = beta + b.scale(s)
        q = QuadraticLieAlgebra(space, beta)
        if verify_lifted(q).ok:
            found.append(q)
    return found
