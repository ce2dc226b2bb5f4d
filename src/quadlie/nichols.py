"""Nichols-algebra probes at bounded degree.

Degree-n dimensions of the Nichols algebra are ranks of quantum
symmetrizers: sums of the braid lifts of all permutations (well-defined
by Matsumoto's theorem).  By the Woronowicz factorisation
S_n = (S_(n-1) (x) id) T_n, the rank of S_n is that of a row basis of
S_(n-1), tensored with id, times T_n, so the ranks come from one row
basis per degree, and no symmetrizer is built.  The dense symmetrizer
and the braid lifts stay as the oracles of that recursion, and the braid
lifts also of the crossings of ``tensoralg``.  Primitivity
of quotient cosets is decided by reducing both coproduct legs to
canonical normal forms.  Includes Gaussian binomials and the closed-form
power coproducts of the diagonal-type and unipotent-type canonical
braidings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .braided import BraidedSpace, apply_at, mat_tensor, per_space, sparse_columns
from .envelope import Presentation, ideal_truncation, sq_graded_dims, sq_presentation
from .fields import Scalar
from .linalg import Mat, SparseEchelon, Subspace, integral, null_space
from .table import row_instance
from .tensoralg import (
    SplitTensorElem,
    TensorElem,
    add_up,
    braided_mul_split,
    coproduct,
    crossing,
)


#: Largest number of words of length <= the degree of nichols-check: degree
#: 8 on two letters.  A row basis of S_(d-1) can have n^(d-1) rows, so the
#: recursion's work is bounded through the words.
MAX_SYMMETRIZER_WORDS = 2**9


def braid_lift(space: BraidedSpace, word, total: int) -> Mat:
    """Product of adjacent braidings prescribed by a braid word."""
    out = Mat.identity(space.field, space.dim**total)
    for i in word:
        out = out @ space.braiding_at(i, total)
    return out


@per_space
def quantum_symmetrizer(space: BraidedSpace, n: int) -> Mat:
    """Sum of the braid lifts of all permutations of n tensor factors,
    built once per space and degree.

    Built by the Woronowicz factorisation S_n = (S_(n-1) (x) id) T_n with
    T_n = id + c_(n-1) + c_(n-1) c_(n-2) + ... + c_(n-1) ... c_1: every
    permutation is h tau with h fixing the last factor and tau one of the
    minimal coset representatives s_(n-1) ... s_j, whose lengths add.
    """
    if n < 0:
        raise ValueError("negative degree")
    field = space.field
    if n == 0:
        return Mat.identity(field, 1)
    eye = Mat.identity(field, space.dim**n)
    t = eye
    for i in range(1, n):
        t = eye + space.braiding_at(i, n) @ t
    return mat_tensor(field, quantum_symmetrizer(space, n - 1), Mat.identity(field, space.dim)) @ t


@per_space
def symmetrizer_row_basis(space: BraidedSpace, n: int) -> tuple:
    """A basis of the row space of the quantum symmetrizer S_n, as sparse
    dicts of raw values (fraction-free integers over Q, residues over
    GF(p)), built once per space and degree.

    If R is a row basis of S_(n-1), then S_n = (S_(n-1) (x) id) T_n has
    the row space of (R (x) id) T_n.  Each row y of R (x) id is multiplied
    by T_n = id + c_(n-1) + c_(n-1) c_(n-2) + ... + c_(n-1) ... c_1 from
    the right, Horner style: y <- y c_i for i = n-1 ... 1, each y added to
    the sum, with y c_i the image of y under c's transpose acting at slot
    i through ``apply_at``, so no lifted map is built.  Over Q c is taken
    as an integer matrix c' = den c, so the sum is den^(n-1) times the row
    of (R (x) id) T_n, and no Fraction arises.
    """
    if n < 0:
        raise ValueError("negative degree")
    if n == 0:
        return ({0: 1},)
    prev = symmetrizer_row_basis(space, n - 1)
    if not prev:
        return ()
    dim, field = space.dim, space.field
    p, n2 = field.p, dim * dim
    flat = [x for row in space.c.a for x in row]
    entries, den = integral(flat) if p is None else (flat, 1)
    transpose = sparse_columns([entries[i::n2] for i in range(n2)])
    echelon = SparseEchelon(field)
    for row in prev:
        for j in range(dim):
            # y (x) x_j: the letter x_j, a map from no factors, at slot n
            y = apply_at([[(j, 1)]], n, dim, row, p, dim)
            total = dict(y)
            for i in range(n - 1, 0, -1):
                y = apply_at(transpose, i, dim, y, p)
                if den != 1:
                    total = {k: den * x for k, x in total.items()}
                for k, x in y.items():
                    total[k] = total.get(k, 0) + x
            echelon.insert(total)
    return tuple(echelon.rows.values())


def symmetrizer_rank(space: BraidedSpace, n: int) -> int:
    """The rank of the quantum symmetrizer S_n: dim B(V)_n."""
    return len(symmetrizer_row_basis(space, n))


def nichols_ranks(space: BraidedSpace, N: int) -> list:
    """The ranks of S_0 ... S_N; once one is 0, all higher ones are."""
    return [symmetrizer_rank(space, n) for n in range(N + 1)]


def nichols_quadratic_at(space: BraidedSpace, N: int) -> bool:
    """Whether the Nichols algebra looks quadratic up to degree N:
    symmetrizer ranks match the quadratic symmetric algebra dimensions."""
    return nichols_ranks(space, N) == sq_graded_dims(space, N)


def q_binomial(n: int, t: int, q: Scalar) -> Scalar:
    """Gaussian binomial coefficient, by the division-free Pascal recursion."""
    if not 0 <= t <= n:
        raise ValueError("need 0 <= t <= n")
    field = q.field
    row = [field.one]
    for m in range(1, n + 1):
        new = [field.one]
        for j in range(1, m):
            new.append(row[j - 1] + q**j * row[j])
        new.append(field.one)
        row = new
    return row[t]


@dataclass
class PrimitiveReport:
    """Primitives of a truncated quotient, with coset representatives."""

    degree_cap: int
    rep_words: list
    primitive_space: Subspace  # in coordinates over rep_words
    levels: dict  # level -> tuple of TensorElem
    verdict: bool  # primitives equal the image of V

    def contains(self, t: TensorElem) -> bool:
        """Whether a normal-form element is primitive in the truncation."""
        pos = {w: i for i, w in enumerate(self.rep_words)}
        vec = [0] * len(self.rep_words)
        for w, c in t.terms.items():
            if w not in pos:
                return False
            vec[pos[w]] = c
        return self.primitive_space.contains(tuple(vec))


def primitives_of_quotient(pres: Presentation, N: int, buffer: int = 2) -> PrimitiveReport:
    """Primitive elements of the truncated quotient algebra.

    Solves Delta(z) = z (x) 1 + 1 (x) z over the span of canonical coset
    representatives of degree <= N, with both coproduct legs reduced to
    normal form.
    """
    trunc = ideal_truncation(pres, N, buffer)
    space = pres.space
    field = space.field
    reps = trunc.quotient_words(N)
    pos = {w: i for i, w in enumerate(reps)}
    # Defects D(w) = nf(Delta w) - w(x)1 - 1(x)w, collected per pair key.
    constraints = {}
    for idx, w in enumerate(reps):
        d = trunc.nf_split(coproduct(TensorElem.word(space, w)))
        d = d - SplitTensorElem.pure(space, w, ()) - SplitTensorElem.pure(space, (), w)
        for key, c in d.terms.items():
            constraints.setdefault(key, {})[idx] = c
    # the primitives: the common null space of the defect functionals
    prim = Subspace(field, len(reps), null_space(field, constraints.values(), len(reps)))
    levels = {}
    for vec in prim.basis:
        elem = TensorElem(space, {reps[j]: c for j, c in enumerate(vec) if c})
        lvl = elem.top_degree()
        levels.setdefault(lvl, []).append(elem)
    levels = {k: tuple(v) for k, v in levels.items()}
    letters = Subspace(
        field,
        len(reps),
        [
            [int(reps[j] == (i,)) for j in range(len(reps))]
            for i in range(1, space.dim + 1)
            if (i,) in pos
        ],
    )
    verdict = prim == letters
    return PrimitiveReport(
        degree_cap=N,
        rep_words=reps,
        primitive_space=prim,
        levels=levels,
        verdict=verdict,
    )


def _nf_split_of_pairs(trunc, pairs):
    """Normal form of a sum of pure (left word, right word, coeff) terms."""
    return trunc.nf_split(SplitTensorElem(trunc.space, add_up(((u, v), c) for u, v, c in pairs)))


def verify_qpower_coproduct(row: int, field, gamma=None, n_max: int = 4) -> bool:
    """Closed-form coproduct of monomials for the diagonal-type rows 5-7.

    For braidings with c(x1 (x) x1) = q1 x1 (x) x1, c(x2 (x) x2) = q2 ...,
    and x1 (x) x2 crossing scalar q12, the coproduct of x1^a x2^b in the
    quadratic symmetric algebra is the double Gaussian-binomial sum; this
    checks it against the direct reduction for a + b <= n_max.
    """
    if row not in (5, 6, 7):
        raise ValueError("closed form applies to the diagonal-type rows 5, 6, 7")
    q = row_instance(row, field, gamma)
    space = q.space
    q1, q2, q12 = (field(space.c[ij]) for ij in ((0, 0), (3, 3), (1, 2)))
    pres = sq_presentation(space)
    trunc = ideal_truncation(pres, n_max, 1)
    for n1 in range(n_max + 1):
        for n2 in range(n_max + 1 - n1):
            word = (1,) * n1 + (2,) * n2
            direct = trunc.nf_split(coproduct(TensorElem.word(space, word)))
            pairs = []
            for t1 in range(n1 + 1):
                for t2 in range(n2 + 1):
                    coeff = (
                        q_binomial(n1, t1, q1)
                        * q_binomial(n2, t2, q2)
                        * q12 ** ((n1 - t1) * t2)
                    )
                    left = (1,) * t1 + (2,) * t2
                    right = (1,) * (n1 - t1) + (2,) * (n2 - t2)
                    pairs.append((left, right, coeff))
            if direct != _nf_split_of_pairs(trunc, pairs):
                return False
    return True


def unipotent_coproduct_coeffs(n_max: int):
    """The integer coefficients alpha_t(n) of the unipotent-row power
    coproducts: alpha_t(n+1) = alpha_t(n) + alpha_{t-1}(n) (n + 2 - 2t),
    alpha_t(0) = [t == 0]."""
    alpha = {(0, 0): 1}
    for n in range(n_max):
        for t in range(0, n_max + 1):
            cur = alpha.get((t, n), 0)
            prev = alpha.get((t - 1, n), 0)
            alpha[(t, n + 1)] = cur + prev * (n + 2 - 2 * t)
    return alpha


def verify_cx2_and_alpha(gamma: Scalar, n_max: int = 6) -> bool:
    """The unipotent-row (row 8) power identities in characteristic 0.

    (a) crossing of x2 past x2^n produces the nilpotent correction
        n gamma x1 x2^(n-1) (x) x1;
    (b) Delta(x2^n) matches the alpha-coefficient closed form;
    (c) alpha_0(n) = 1, alpha_t(n) = 0 for n < 2t, and alpha_1(3) = 3.
    """
    field = gamma.field
    if not field.is_rationals:
        raise ValueError("the closed-form check is stated in characteristic 0")
    q = row_instance(8, field, gamma)
    space = q.space
    pres = sq_presentation(space)
    trunc = ideal_truncation(pres, n_max + 1, 1)

    # (a) crossing identity, computed through the crossing of one word.
    for n in range(n_max + 1):
        image = crossing(space, 1, (2,) * (n + 1))
        lhs = trunc.nf_split(SplitTensorElem(space, add_up(((w[:n], w[n:]), c) for w, c in image)))
        pairs = [((2,) * n, (2,), field.one)]
        if n >= 1:
            pairs.append(((1,) + (2,) * (n - 1), (1,), field(n) * gamma))
        if lhs != _nf_split_of_pairs(trunc, pairs):
            return False

    # (b) power coproducts against the alpha closed form.
    alpha = unipotent_coproduct_coeffs(n_max)
    for n in range(n_max + 1):
        direct = trunc.nf_split(coproduct(TensorElem.word(space, (2,) * n)))
        pairs = []
        for t in range(0, n // 2 + 1):
            a = alpha.get((t, n), 0)
            if not a:
                continue
            coeff_t = field(a) * gamma**t
            m = n - 2 * t
            for i in range(m + 1):
                coeff = coeff_t * field(math.comb(m, i))
                left = (1,) * t + (2,) * i
                right = (1,) * t + (2,) * (m - i)
                pairs.append((left, right, coeff))
        if direct != _nf_split_of_pairs(trunc, pairs):
            return False

    # (c) coefficient facts.
    for n in range(n_max + 1):
        if alpha.get((0, n), 0) != 1:
            return False
        for t in range(n_max + 1):
            if n < 2 * t and alpha.get((t, n), 0) != 0:
                return False
    if n_max >= 3 and alpha.get((1, 3), 0) != 3:
        return False
    return True


def verify_unipotent_bridge(gamma: Scalar, m_max: int = 5) -> bool:
    """Bridge between the braided and the componentwise product on the
    tensor square of the row-8 quadratic symmetric algebra:
    (1 (x) x2) Delta0(x2^m) = (1 (x) x2) .componentwise Delta0(x2^m)
    + m gamma (x1 (x) x1) Delta0(x2^(m-1))."""
    field = gamma.field
    q = row_instance(8, field, gamma)
    space = q.space
    pres = sq_presentation(space)
    trunc = ideal_truncation(pres, m_max + 1, 1)
    one_x2 = SplitTensorElem.pure(space, (), (2,))
    for m in range(m_max + 1):
        delta0 = [((2,) * i, (2,) * (m - i), field(math.comb(m, i))) for i in range(m + 1)]
        d0 = SplitTensorElem(space, {(u, v): c for u, v, c in delta0})
        lhs = trunc.nf_split(braided_mul_split(one_x2, d0))
        rhs_pairs = [((2,) * i, (2,) * (m - i + 1), field(math.comb(m, i))) for i in range(m + 1)]
        if m >= 1:
            rhs_pairs.extend(
                ((1,) + (2,) * i, (1,) + (2,) * (m - 1 - i), field(m) * gamma * field(math.comb(m - 1, i)))
                for i in range(m)
            )
        if lhs != _nf_split_of_pairs(trunc, rhs_pairs):
            return False
    return True
