import math
import random
from fractions import Fraction

import pytest
from conftest import raw

from quadlie.fields import GF, QQ, FieldMismatch, Scalar
from quadlie.linalg import (
    HypothesisViolated,
    Mat,
    Poly,
    SparseEchelon,
    Subspace,
    column_space,
    complement_split,
    eval_poly_at,
    kernel,
    minimal_polynomial,
    null_space,
    poly_gcd_bezout,
    solve,
)

FLIP = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
ROW4_G1 = [[1, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]]
ROW5 = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]


def _rand_mat(field, rows, cols, rng, pool=3):
    if field.is_rationals:
        return Mat.from_rows(field, [[rng.randint(-pool, pool) for _ in range(cols)] for _ in range(rows)])
    return Mat.from_rows(field, [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)])


def test_kernel_of_identity():
    assert kernel(Mat.identity(QQ, 4)).dim == 0


def test_kernel_flip_plus_one():
    m = Mat.from_rows(QQ, FLIP) + Mat.identity(QQ, 4)
    ker = kernel(m)
    assert ker.basis == ((0, 1, -1, 0),)


def test_kernel_row4_plus_one():
    m = Mat.from_rows(QQ, ROW4_G1) + Mat.identity(QQ, 4)
    ker = kernel(m)
    # gamma x1(x)x1 - 2 x2(x)x2 rescaled to echelon form, and x2(x)x1 - x1(x)x2
    assert ker.basis == (
        (1, 0, 0, -2),
        (0, 1, -1, 0),
    )


def test_rank_nullity_random():
    rng = random.Random(3)
    for field in (QQ, GF(5)):
        for _ in range(30):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = _rand_mat(field, rows, cols, rng)
            assert m.rank() + kernel(m).dim == cols


def test_minimal_polynomial_identity():
    p = minimal_polynomial(Mat.identity(QQ, 4))
    assert p == Poly(QQ, [-1, 1])


def test_minimal_polynomial_flip():
    p = minimal_polynomial(Mat.from_rows(QQ, FLIP))
    assert p == Poly(QQ, [-1, 0, 1])


def test_minimal_polynomial_row5():
    p = minimal_polynomial(Mat.from_rows(QQ, ROW5))
    assert p == Poly(QQ, [0, -1, 0, 1])  # (X^2 - 1) X


def test_minimal_polynomial_properties():
    rng = random.Random(4)
    for _ in range(20):
        m = _rand_mat(GF(5), 3, 3, rng)
        p = minimal_polynomial(m)
        assert eval_poly_at(p, m).is_zero()
        assert p.coeffs[-1] == GF(5)(1)
        # no proper monic divisor annihilates: enumerate all candidates
        from itertools import product as iproduct

        for deg in range(1, p.degree):
            for coeffs in iproduct(range(5), repeat=deg):
                cand = Poly(GF(5), list(coeffs) + [1])
                if (p % cand).is_zero():
                    assert not eval_poly_at(cand, m).is_zero()


@pytest.mark.parametrize("field", [QQ, GF(3), GF(7)], ids=repr)
def test_minimal_polynomial_matches_power_rank_oracle(field, dense_oracle):
    rng = random.Random(f"minimal polynomial:{field!r}")
    for n in range(1, 5):
        eye = Mat.identity(field, n)
        mats = [Mat.zero(field, n, n), eye, eye.scale(2), eye.scale(-1)]
        # nilpotent: strictly upper triangular, conjugated by an invertible a
        while (a := _rand_mat(field, n, n, rng)).rank() < n:
            pass
        upper = Mat.from_rows(field, [[rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)])
        mats += [upper, a @ upper @ a.inverse()]
        mats += [_rand_mat(field, n, n, rng) for _ in range(4)]
        for m in mats:
            f = minimal_polynomial(m)
            assert f == dense_oracle.minimal_polynomial(m), m
            assert eval_poly_at(f, m).is_zero()


def test_poly_gcd_bezout_examples():
    g, u, v = poly_gcd_bezout(Poly(QQ, [1, 1]), Poly(QQ, [-1, 1]))
    assert g == Poly(QQ, [1])
    assert u * Poly(QQ, [1, 1]) + v * Poly(QQ, [-1, 1]) == g

    g, u, v = poly_gcd_bezout(Poly(QQ, [-1, 0, 1]), Poly(QQ, [1, 1]))
    assert g == Poly(QQ, [1, 1])
    assert u * Poly(QQ, [-1, 0, 1]) + v * Poly(QQ, [1, 1]) == g


def test_poly_gcd_bezout_gf5():
    F = GF(5)
    a = Poly(F, [1, -2, 1])  # (X-1)^2
    b = Poly(F, [1, 1])
    g, u, v = poly_gcd_bezout(a, b)
    assert g == Poly(F, [1])
    assert u * a + v * b == g


def test_eval_poly_examples():
    flip = Mat.from_rows(QQ, FLIP)
    m = eval_poly_at(Poly(QQ, [-1, 1]), flip)
    # (c - 1) applied to x2(x)x1 gives x1(x)x2 - x2(x)x1
    assert m.col(1) == (0, -1, 1, 0)
    assert eval_poly_at(Poly(QQ, []), flip).is_zero()
    assert eval_poly_at(Poly(QQ, [1, 1]), Mat.identity(QQ, 3).scale(QQ(-1))).is_zero()


def test_complement_split_flip():
    flip = Mat.from_rows(QQ, FLIP)
    a = eval_poly_at(Poly(QQ, [1, 1]), flip)
    b = eval_poly_at(Poly(QQ, [-1, 1]), flip)
    im_a, im_b = complement_split(a, b)
    assert {im_a.dim, im_b.dim} == {1, 3}
    assert im_a.dim + im_b.dim == 4


def test_complement_split_identity():
    eye = Mat.identity(QQ, 3)
    a = eval_poly_at(Poly(QQ, [1, 1]), eye)  # c + 1 = 2I, full image
    b = eval_poly_at(Poly(QQ, [-1, 1]), eye)  # c - 1 = 0
    im_a, im_b = complement_split(a, b)
    assert im_a.dim == 3 and im_b.dim == 0


def test_complement_split_rejects_nonannihilating():
    eye = Mat.identity(QQ, 2)
    with pytest.raises(HypothesisViolated):
        complement_split(eye, eye)


def test_subspace_canonical():
    s1 = Subspace(QQ, 3, [(2, 0, 2), (1, 1, 0)])
    s2 = Subspace(QQ, 3, [(1, 1, 0), (0, 2, -2)])
    assert s1 == s2
    assert s1.contains((3, 1, 2))
    assert not s1.contains((0, 0, 1))
    coords = s1.coords((3, 1, 2))
    acc = [0] * 3
    for coef, vec in zip(coords, s1.basis):
        acc = [a + coef * b for a, b in zip(acc, vec)]
    assert tuple(acc) == (3, 1, 2)


def test_solve():
    a = Mat.from_rows(QQ, [[1, 2], [3, 4]])
    x = solve(a, (5, 11))
    assert a.apply(x) == (5, 11)
    singular = Mat.from_rows(QQ, [[1, 1], [1, 1]])
    assert solve(singular, (0, 1)) is None


def test_column_space():
    m = Mat.from_rows(QQ, [[1, 2], [2, 4]])
    cs = column_space(m)
    assert cs.dim == 1
    assert cs.contains((1, 2))


def test_sparse_echelon_reduce_and_rank():
    ech = SparseEchelon(QQ)
    assert ech.insert({0: 1, 2: 1}) == 0
    assert ech.insert({0: 2, 2: 2}) is None  # dependent
    assert ech.insert({1: 1, 2: 3}) == 1
    assert ech.rank == 2
    # normal forms are canonical: tails avoid all pivots
    red = ech.reduce({0: 1, 1: 1, 3: 1})
    assert set(red) <= {2, 3}
    assert ech.contains({0: 1, 2: 1})
    assert not ech.contains({3: 1})


def test_sparse_echelon_matches_dense_rank():
    rng = random.Random(5)
    for _ in range(20):
        rows = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(8)]
        dense = Mat.from_rows(QQ, rows).rank()
        ech = SparseEchelon(QQ)
        for r in rows:
            ech.insert({j: x for j, x in enumerate(r) if x})
        assert ech.rank == dense


def _raw(vec):
    """A Scalar-valued dict as raw values (Fractions over Q, residues over GF(p))."""
    return {k: x.v for k, x in vec.items()}


def _random_value(rng, field):
    if field.is_rationals:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 7))
    return rng.randrange(1, field.p)


def _random_sparse(rng, field, size, basis):
    """A sparse vector: random entries, or a combination of earlier vectors
    (so that some inserts are dependent), as Scalars."""
    vec = {}
    if basis and rng.random() < 0.3:
        for old in rng.sample(basis, min(len(basis), rng.randint(1, 3))):
            f = field(_random_value(rng, field))
            for k, x in old.items():
                vec[k] = vec.get(k, field.zero) + f * x
    else:
        for k in rng.sample(range(size), rng.randint(1, 6)):
            vec[k] = field(_random_value(rng, field))
    return vec


@pytest.mark.parametrize("field", [QQ, GF(3), GF(7)], ids=repr)
def test_sparse_echelon_matches_scalar_oracle(field, scalar_echelon):
    rng = random.Random(f"echelon:{field!r}")
    for trial in range(12):
        fast, slow = SparseEchelon(field), scalar_echelon(field)
        size = rng.randint(8, 40)
        basis = []
        for _ in range(rng.randint(5, 60)):
            vec = _random_sparse(rng, field, size, basis)
            basis.append(vec)
            # the fast echelon takes raw sparse dicts or dense sequences
            arg = _raw(vec) if rng.random() < 0.5 else [_raw(vec).get(k, 0) for k in range(size)]
            assert fast.insert(arg) == slow.insert(vec), trial
        assert sorted(fast.pivots()) == sorted(slow.rows)
        assert fast.rank == slow.rank
        for p, row in slow.rows.items():
            assert fast.row(p) == _raw(row)
            stored = fast.rows[p]
            if field.is_rationals:
                # fraction-free: the pivot entry is the row's denominator
                # and the content is 1
                den = math.lcm(*(x.v.denominator for x in row.values()))
                assert stored == {k: int(x.v * den) for k, x in row.items()}
            else:
                assert stored == _raw(row)
        for _ in range(20):
            probe = _random_sparse(rng, field, size + 3, basis)
            assert fast.reduce(_raw(probe)) == _raw(slow.reduce(probe))


def _dense_product(a, b):
    """Reference product on Scalars: every entry is the full sum over the
    inner index."""
    f = a.field
    return [[sum((f(a[i, k]) * f(b[k, j]) for k in range(a.cols)), f.zero) for j in range(b.cols)] for i in range(a.rows)]


def _sparse_entries(field, rows, cols, rng, density):
    """Random entries with one all-zero row and one all-zero column."""
    zero_row, zero_col = rng.randrange(rows), rng.randrange(cols)
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            if i == zero_row or j == zero_col or rng.random() > density:
                row.append(0)
            elif field.is_rationals:
                row.append(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            else:
                row.append(rng.randrange(field.p))
        out.append(row)
    return out


@pytest.mark.parametrize("field", [QQ, GF(3), GF(7)])
def test_matmul_matches_dense_reference(field):
    rng = random.Random(17)
    for trial in range(60):
        r, k, c = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
        density = (0.1, 0.5, 1.0)[trial % 3]
        a = Mat.from_rows(field, _sparse_entries(field, r, k, rng, density))
        b = Mat.from_rows(field, _sparse_entries(field, k, c, rng, density))
        prod = a @ b
        assert (prod.rows, prod.cols) == (r, c)
        assert prod.field is field
        assert prod.a == [list(raw(field, r)) for r in _dense_product(a, b)]
    z = Mat.zero(field, 3, 4)
    assert (z @ Mat.identity(field, 4)).a == z.a


def test_matmul_shape_and_field_mismatch():
    with pytest.raises(ValueError, match="shape mismatch 2x3 @ 2x3"):
        Mat.zero(QQ, 2, 3) @ Mat.zero(QQ, 2, 3)
    with pytest.raises(FieldMismatch):
        Mat.identity(GF(5), 2) @ Mat.identity(GF(7), 2)


# The vector arguments of apply, solve and coords go through Field.coerce:
# Scalars of the field come back raw, a Scalar of another field is refused.

def test_apply_takes_scalars_over_q():
    out = Mat.identity(QQ, 2).apply((QQ(1), QQ(2)))
    assert out == (1, 2) and not any(isinstance(x, Scalar) for x in out)


def test_apply_takes_scalars_over_gf():
    F = GF(5)
    assert Mat.identity(F, 2).apply((F(1), F(7))) == (1, 2)


def test_solve_takes_scalars():
    x = solve(Mat.identity(QQ, 2), (QQ(1), QQ(2)))
    assert x == (1, 2) and not any(isinstance(v, Scalar) for v in x)


def test_coords_take_scalars():
    assert Subspace(GF(5), 2, [(1, 0)]).coords((GF(5)(3), 0)) == (3,)


def test_vectors_over_another_field_are_refused():
    with pytest.raises(FieldMismatch):
        Mat.identity(QQ, 2).apply((GF(5)(1), 0))
    with pytest.raises(FieldMismatch):
        solve(Mat.identity(QQ, 2), (GF(5)(1), 0))
    with pytest.raises(FieldMismatch):
        Subspace(QQ, 2, [(1, 0)]).coords((GF(5)(3), 0))


# (rows, cols, rank bound or None): tall, wide, square, single row and
# column, and rank-deficient products of a thin factor pair
_SHAPES = [(7, 3, None), (3, 7, None), (5, 5, None), (1, 6, None), (6, 1, None),
           (6, 6, 3), (4, 8, 2), (8, 4, 1), (5, 5, 4)]


def _random_entry(rng, field):
    if field.is_rationals:
        if rng.random() < 0.5:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        return rng.randint(-4, 4)
    return rng.randrange(field.p)


def _random_dense(rng, field, rows, cols, rank_bound):
    """Random entries, or a product of rows x k and k x cols factors when
    a rank bound k is given; a third of the cases get an all-zero row."""
    if rank_bound is None:
        m = Mat.from_rows(field, [[_random_entry(rng, field) for _ in range(cols)] for _ in range(rows)])
    else:
        left = Mat.from_rows(field, [[_random_entry(rng, field) for _ in range(rank_bound)] for _ in range(rows)])
        right = Mat.from_rows(field, [[_random_entry(rng, field) for _ in range(cols)] for _ in range(rank_bound)])
        m = left @ right
    if rng.random() < 1 / 3:
        a = [list(r) for r in m.a]
        a[rng.randrange(rows)] = [0] * cols
        m = Mat(field, a)
    return m


@pytest.mark.parametrize("field", [QQ, GF(3), GF(7)], ids=repr)
def test_dense_views_match_gauss_jordan_oracle(field, dense_oracle):
    rng = random.Random(f"dense:{field!r}")
    for trial in range(8):
        for rows, cols, rank_bound in _SHAPES:
            m = _random_dense(rng, field, rows, cols, rank_bound)
            red, piv = m.rref()
            want_red, want_piv = dense_oracle.rref(m)
            assert (red.rows, red.cols) == (rows, cols)
            assert red == want_red and piv == want_piv, (trial, m)
            assert m.rank() == dense_oracle.rank(m)
            ker = kernel(m)
            assert ker.ambient_dim == cols
            assert ker.basis == dense_oracle.kernel_basis(m)
            x0 = tuple(field.coerce(_random_entry(rng, field)) for _ in range(cols))
            for b in (m.apply(x0), tuple(field.coerce(_random_entry(rng, field)) for _ in range(rows))):
                assert solve(m, b) == dense_oracle.solve(m, b)
            if rows == cols:
                try:
                    want = dense_oracle.inverse(m)
                except HypothesisViolated:
                    with pytest.raises(HypothesisViolated):
                        m.inverse()
                else:
                    assert m.inverse() == want
    assert Mat.zero(field, 3, 4).rref() == dense_oracle.rref(Mat.zero(field, 3, 4))


@pytest.mark.parametrize("field", [GF(3), GF(7), QQ], ids=repr)
def test_null_space_matches_gauss_jordan_oracle(field, dense_oracle):
    # integer rows as the appendix passes them: unreduced and negative
    # residues, dense and as sparse dicts
    rng = random.Random(f"null:{field!r}")
    bound = 3 * (field.p or 5)
    for trial in range(60):
        rows, cols, _ = _SHAPES[trial % len(_SHAPES)]
        ints = [[rng.randint(-bound, bound) if rng.random() < 0.7 else 0 for _ in range(cols)] for _ in range(rows)]
        if trial % 4 == 0:
            ints.append([2 * x - y for x, y in zip(ints[0], ints[-1])])
        want = dense_oracle.null_vectors(Mat.from_rows(field, ints))
        assert null_space(field, ints, cols) == want, trial
        sparse = [{j: x for j, x in enumerate(r) if x} for r in ints]
        assert null_space(field, sparse, cols) == want, trial
    assert null_space(field, [], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_add_sub_apply_shape_mismatch():
    # no silent truncation to the smaller operand
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(ValueError, match="shape mismatch 2x2 and 3x3"):
            op(Mat.identity(QQ, 2), Mat.identity(QQ, 3))
        with pytest.raises(ValueError, match="shape mismatch"):
            op(Mat.zero(QQ, 2, 3), Mat.zero(QQ, 3, 2))
    with pytest.raises(ValueError, match="shape mismatch"):
        Mat.identity(QQ, 2).apply((1, 2, 3))
    assert Mat.identity(QQ, 2).apply((1, 2)) == (1, 2)
    assert (Mat.identity(QQ, 2) - Mat.identity(QQ, 2)).is_zero()
