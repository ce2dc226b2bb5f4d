import math
import random
from itertools import permutations

import pytest

from quadlie import nichols
from quadlie.braided import BraidedSpace, diagonal_braiding, split_minpoly
from quadlie.classify import conjugate
from quadlie.envelope import ideal_truncation, sq_graded_dims, sq_presentation, uq_relations
from quadlie.fields import GF, QQ
from quadlie.linalg import Mat, Subspace
from quadlie.nichols import (
    braid_lift,
    nichols_quadratic_at,
    nichols_ranks,
    primitives_of_quotient,
    q_binomial,
    quantum_symmetrizer,
    symmetrizer_rank,
    symmetrizer_row_basis,
    unipotent_coproduct_coeffs,
    verify_cx2_and_alpha,
    verify_qpower_coproduct,
    verify_unipotent_bridge,
)
from quadlie.table import GAMMA_RULES, _c_rows, default_gamma, gamma_allowed, row_instance
from quadlie.tensoralg import TensorElem, coproduct


def _reduced_word(perm, leftmost=True):
    """A reduced word for a permutation, by sorting at descents: the
    leftmost or the rightmost descent first."""
    p = list(perm)
    word = []
    while True:
        descents = [i for i in range(len(p) - 1) if p[i] > p[i + 1]]
        if not descents:
            return word
        i = descents[0] if leftmost else descents[-1]
        word.append(i + 1)
        p[i], p[i + 1] = p[i + 1], p[i]


def _permutation_sum(space, n):
    """The quantum symmetrizer by definition: the n! braid lifts, summed."""
    total = Mat.zero(space.field, space.dim**n, space.dim**n)
    for perm in permutations(range(n)):
        total = total + braid_lift(space, _reduced_word(perm), n)
    return total


def test_symmetrizer_matches_permutation_sum_all_rows():
    for field in (QQ, GF(3), GF(5), GF(7)):
        for row in range(1, 9):
            sp = row_instance(row, field, default_gamma(row, field)).space
            for n in range(5):
                assert quantum_symmetrizer(sp, n) == _permutation_sum(sp, n), (field, row, n)


def test_symmetrizer_matches_permutation_sum_degree_five():
    sp = row_instance(2, QQ, default_gamma(2, QQ)).space
    assert quantum_symmetrizer(sp, 5) == _permutation_sum(sp, 5)


def _random_basis_change(rng, field):
    while True:
        a = [[rng.choice((-1, 0, 1)) for _ in range(2)] for _ in range(2)]
        if a[0][0] * a[1][1] - a[0][1] * a[1][0] in (1, -1):
            return Mat.from_rows(field, a)


def test_symmetrizer_matches_permutation_sum_on_conjugates():
    # dense braidings: seeded basis changes with entries in {-1, 0, 1}, det +-1
    rng = random.Random(7)
    for field in (QQ, GF(5)):
        for row in range(1, 9):
            q = row_instance(row, field, default_gamma(row, field))
            sp = conjugate(q, _random_basis_change(rng, field)).space
            for n in (3, 4):
                assert quantum_symmetrizer(sp, n) == _permutation_sum(sp, n), (field, row, n)


def test_symmetrizer_built_once_per_space(monkeypatch):
    # S_n is kept on the space and built from S_(n-1): degree 4 on a fresh
    # space takes four tensor steps, and every degree up to 4 is then
    # returned as the same object, equal to the sum over permutations
    from quadlie import nichols

    steps = []
    tensor = nichols.mat_tensor
    monkeypatch.setattr(nichols, "mat_tensor", lambda *args: steps.append(1) or tensor(*args))
    for field in (QQ, GF(5)):
        steps.clear()
        sp = row_instance(2, field, default_gamma(2, field)).space
        top = quantum_symmetrizer(sp, 4)
        assert len(steps) == 4
        again = [quantum_symmetrizer(sp, n) for n in range(5)]
        assert len(steps) == 4 and again[4] is top
        for n, s in enumerate(again):
            assert quantum_symmetrizer(sp, n) is s
            assert s == _permutation_sum(sp, n), (field, n)


def test_symmetrizer_degree_two():
    sp = row_instance(1, QQ).space
    assert quantum_symmetrizer(sp, 2) == sp.c + Mat.identity(QQ, 4)


def test_symmetrizer_flip_symmetric_powers():
    sp = row_instance(1, QQ).space
    # rank in degree n equals dim Sym^n of a 2-dim space = n + 1
    for n in range(5):
        assert symmetrizer_rank(sp, n) == n + 1


def test_symmetrizer_row4_degree2():
    q = row_instance(4, QQ, 1)
    assert symmetrizer_rank(q.space, 2) == 4 - q.space.e2().dim == 2


def test_matsumoto_independence():
    # two different reduced-word schedules produce the same lift per
    # permutation, hence the same symmetrizer
    for row in (1, 4, 8):
        sp = row_instance(row, QQ, default_gamma(row, QQ)).space
        for n in (3, 4):
            for perm in permutations(range(n)):
                left = _reduced_word(perm, leftmost=True)
                right = _reduced_word(perm, leftmost=False)
                assert len(left) == len(right)
                assert braid_lift(sp, left, n) == braid_lift(sp, right, n)


def test_symmetrizer_rank_bounded_by_sq():
    for row in range(1, 9):
        sp = row_instance(row, QQ, default_gamma(row, QQ)).space
        dims = sq_graded_dims(sp, 4)
        for n in range(5):
            assert symmetrizer_rank(sp, n) <= dims[n]


def test_nichols_quadratic_rows_over_q():
    for row in range(1, 9):
        sp = row_instance(row, QQ, default_gamma(row, QQ)).space
        assert nichols_quadratic_at(sp, 4), row


def test_nichols_obstruction_gf3():
    sp = row_instance(1, GF(3)).space
    assert nichols_quadratic_at(sp, 2)
    assert not nichols_quadratic_at(sp, 3)
    # the drop happens exactly at degree 3: 6 = 0 mod 3 kills the cube
    assert symmetrizer_rank(sp, 3) < sq_graded_dims(sp, 3)[3]


@pytest.mark.parametrize("p", [3, 5])
def test_nichols_obstruction_every_row(p):
    # over GF(p) every table row, at its least allowed gamma, has the
    # quadratic dimensions as Nichols ranks below degree p, and fewer at p
    field = GF(p)
    for row in range(1, 9):
        gamma = None if GAMMA_RULES[row] is None else min(g for g in range(p) if gamma_allowed(row, field, g))
        sp = row_instance(row, field, gamma).space
        ranks, dims = nichols_ranks(sp, p), sq_graded_dims(sp, p)
        assert ranks[:p] == dims[:p] and ranks[p] < dims[p], (row, ranks, dims)


def _table_space(row, field):
    """The braided space of a table row; over GF(2), where the table is not
    defined, its braiding read mod 2 with gamma = 1."""
    if field.p == 2:
        return BraidedSpace(field, 2, Mat.from_rows(field, _c_rows(row, field, field(1))))
    return row_instance(row, field, default_gamma(row, field)).space


def _dense_ranks(space, top):
    return [quantum_symmetrizer(space, n).rank() for n in range(top + 1)]


def test_row_space_recursion_matches_dense_symmetrizer_on_table_rows():
    # the ranks of the recursion against the dense symmetrizer, and its row
    # bases against the dense rows up to degree 4
    for field in (QQ, GF(2), GF(3), GF(5), GF(7)):
        for row in range(1, 9):
            sp = _table_space(row, field)
            assert nichols_ranks(sp, 5) == _dense_ranks(sp, 5), (field, row)
            for n in range(5):
                width = sp.dim**n
                rows = [[r.get(k, 0) for k in range(width)] for r in symmetrizer_row_basis(sp, n)]
                dense = quantum_symmetrizer(sp, n).a
                assert Subspace(field, width, rows) == Subspace(field, width, dense), (field, row, n)


def test_row_space_recursion_matches_dense_symmetrizer_on_conjugates():
    rng = random.Random(11)
    for field in (QQ, GF(5)):
        for row in range(1, 9):
            q = row_instance(row, field, default_gamma(row, field))
            sp = conjugate(q, _random_basis_change(rng, field)).space
            assert nichols_ranks(sp, 5) == _dense_ranks(sp, 5), (field, row)


def test_row_space_recursion_matches_dense_symmetrizer_on_diagonal_braidings():
    # seeded diagonal braidings on three letters to degree 4 and on four
    # letters to degree 3, with entries in {-2, -1, 1/2, 1, 2}
    rng = random.Random(5)
    for field in (QQ, GF(5)):
        entries = [field(x) for x in (-2, -1, 1, 2)] + [field(2).inverse()]
        for n, top in ((3, 4), (4, 3)):
            for _ in range(3):
                q = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
                sp = BraidedSpace(field, n, Mat.from_rows(field, diagonal_braiding(n, q)))
                assert nichols_ranks(sp, top) == _dense_ranks(sp, top), (field, q)


def _series(heights, top):
    """Coefficients of prod (1 + t + ... + t^(h - 1)) up to t^top."""
    coeffs = [1] + [0] * top
    for h in heights:
        coeffs = [sum(coeffs[d - k] for k in range(min(h, d + 1))) for d in range(top + 1)]
    return coeffs


def _height(field, q, top):
    """The least k with 1 + q + ... + q^(k - 1) = 0 in the field (the order
    of q if q != 1, the characteristic if q = 1), or top + 1 if none is
    <= top + 1."""
    q = field(q)
    total, power = field.zero, field.one
    for k in range(1, top + 2):
        total, power = total + power, power * q
        if not total:
            return k
    return top + 1


def _quantum_linear_space(field, diag, off):
    """The diagonal braiding with q_ii = diag[i] and q_ij = off[i][j],
    q_ji = 1 / q_ij for i < j."""
    n = len(diag)
    q = [[field.one] * n for _ in range(n)]
    for i in range(n):
        q[i][i] = field(diag[i])
        for j in range(i + 1, n):
            q[i][j] = field(off[i][j])
            q[j][i] = q[i][j].inverse()
    return BraidedSpace(field, n, Mat.from_rows(field, diagonal_braiding(n, q)))


def test_quantum_linear_spaces_match_their_hilbert_series():
    # Andruskiewitsch-Schneider: when q_ij q_ji = 1 for i != j, the Nichols
    # algebra has the Hilbert series prod (1 + t + ... + t^(N_i - 1)), N_i
    # the height of q_ii
    top = 12
    sp = _quantum_linear_space(GF(7), [2, 6], [[1, 3]])
    assert nichols_ranks(sp, top) == [1, 2, 2, 1] + [0] * 9
    sp = _quantum_linear_space(GF(13), [3, 5, 12], [[1, 5, 7], [1, 1, 2]])
    assert nichols_ranks(sp, top) == [1, 3, 5, 6, 5, 3, 1] + [0] * 6
    for n in (2, 3):
        # q_ij = 2, q_ji = 1/2: the braiding's entries are Fractions
        sp = _quantum_linear_space(QQ, [1] * n, [[2] * n] * n)
        assert nichols_ranks(sp, 10) == [math.comb(d + n - 1, n - 1) for d in range(11)]
    # seeded ones with q_ii != 1, on three letters to degree 8 only (the
    # rows grow with the multinomials of the degree)
    rng = random.Random(3)
    for field in (GF(5), GF(7), GF(11), GF(13)):
        for n, deg in ((2, top), (3, 8)):
            diag = [rng.randrange(2, field.p) for _ in range(n)]
            off = [[rng.randrange(1, field.p) for _ in range(n)] for _ in range(n)]
            sp = _quantum_linear_space(field, diag, off)
            heights = [_height(field, x, deg) for x in diag]
            assert nichols_ranks(sp, deg) == _series(heights, deg), (field, diag, off)


def test_ranks_build_no_table_that_outlives_the_space():
    # three letters over GF(13) with q_ii = 1, q_ij = 2 and q_ji = 1/2 to
    # degree 8: the recursion acts on sparse rows only, so the traced peak
    # stays small, and nothing it allocated is held once the space is gone
    # (on Python 3.11, 2.4 MB and none; lifted index tables cached per
    # module made it 17.8 MB and 6.0 MB)
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        sp = _quantum_linear_space(GF(13), [1, 1, 1], [[2] * 3] * 3)
        assert nichols_ranks(sp, 8) == [math.comb(d + 2, 2) for d in range(9)]
        peak = tracemalloc.get_traced_memory()[1]
        del sp
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000, peak
    assert held < 2_000_000, held


def test_a2_at_minus_one_is_not_quadratic_in_degree_four():
    # Cartan type A2 at q = -1: q_11 = q_22 = -1, q_12 q_21 = -1.  The
    # Nichols algebra has dimension 8 and top degree 4, where the quadratic
    # algebra still has dimension 2
    sp = BraidedSpace(QQ, 2, Mat.from_rows(QQ, diagonal_braiding(2, [[-1, -1], [1, -1]])))
    assert nichols_ranks(sp, 6) == [1, 2, 2, 2, 1, 0, 0]
    assert _dense_ranks(sp, 5) == [1, 2, 2, 2, 1, 0]
    assert sq_graded_dims(sp, 4) == [1, 2, 2, 2, 2]
    assert nichols_quadratic_at(sp, 3)
    assert not nichols_quadratic_at(sp, 4)


def test_each_degree_is_reduced_once(monkeypatch):
    # one echelon per degree, kept on the space: the ranks, the rank of one
    # degree and the quadratic test after them build nothing anew
    built = []
    echelon = nichols.SparseEchelon
    monkeypatch.setattr(nichols, "SparseEchelon", lambda field: built.append(1) or echelon(field))
    sp = row_instance(2, QQ).space
    assert nichols_ranks(sp, 5) == list(range(1, 7))
    assert len(built) == 5
    assert symmetrizer_rank(sp, 3) == 4 and nichols_quadratic_at(sp, 5)
    assert len(built) == 5


def test_ranks_stop_at_the_first_zero(monkeypatch):
    # past a rank 0 no row is inserted: the flip over GF(2) has the
    # exterior algebra as its Nichols algebra
    field = GF(2)
    sp = BraidedSpace(field, 2, Mat.from_rows(field, diagonal_braiding(2, [[1, 1], [1, 1]])))
    assert nichols_ranks(sp, 3) == [1, 2, 1, 0]
    monkeypatch.setattr(nichols, "SparseEchelon", None)
    assert nichols_ranks(sp, 9) == [1, 2, 1] + [0] * 7


def test_negative_degree_has_no_symmetrizer():
    sp = row_instance(1, QQ).space
    with pytest.raises(ValueError):
        symmetrizer_rank(sp, -1)


def test_q_binomial_values():
    assert q_binomial(5, 0, QQ(7)) == QQ(1)
    assert q_binomial(4, 2, QQ(1)) == QQ(6)
    assert q_binomial(3, 1, QQ(0)) == QQ(1)
    with pytest.raises(ValueError):
        q_binomial(2, 3, QQ(1))


def test_q_binomial_polynomial_identity():
    # binom(3,1)_q = 1 + q + q^2 at several rational points
    for qv in (2, 3, -1, 5):
        q = QQ(qv)
        assert q_binomial(3, 1, q) == QQ(1) + q + q * q


def test_q_binomial_product_formula_oracle():
    # prod_{i<t} (1 - q^(n-i)) / (1 - q^(i+1)) away from roots of unity
    for n, t in [(4, 2), (5, 3), (6, 2)]:
        for qv in (2, 3, QQ(1) / QQ(2)):
            q = QQ(qv)
            num = QQ(1)
            den = QQ(1)
            for i in range(t):
                num = num * (QQ(1) - q ** (n - i))
                den = den * (QQ(1) - q ** (i + 1))
            assert q_binomial(n, t, q) == num / den


def test_q_binomial_pascal_recursion():
    q = QQ(3)
    for n in range(1, 6):
        for t in range(1, n):
            assert q_binomial(n, t, q) == q_binomial(n - 1, t - 1, q) + q**t * q_binomial(n - 1, t, q)


def test_primitives_sq_row1():
    sp = row_instance(1, QQ).space
    rep = primitives_of_quotient(sq_presentation(sp), 6)
    assert rep.verdict
    assert set(rep.levels) == {1}
    elems = rep.levels[1]
    assert {tuple(sorted(e.terms)) for e in elems} == {((1,),), ((2,),)}


def test_primitives_sq_rows_over_q():
    for row in range(2, 9):
        sp = row_instance(row, QQ, default_gamma(row, QQ)).space
        rep = primitives_of_quotient(sq_presentation(sp), 4)
        assert rep.verdict, row


def test_primitives_gf3_obstruction():
    sp = row_instance(1, GF(3)).space
    rep = primitives_of_quotient(sq_presentation(sp), 3)
    assert not rep.verdict
    cube = TensorElem.word(sp, (1, 1, 1))
    assert rep.contains(cube)
    assert 3 in rep.levels


def test_primitives_uq_row1():
    q = row_instance(1, QQ)
    pres = uq_relations(q, split_minpoly(q.space))
    rep = primitives_of_quotient(pres, 4)
    assert rep.verdict


def test_qpower_coproduct_rows():
    assert verify_qpower_coproduct(5, QQ, None, 4)
    assert verify_qpower_coproduct(6, QQ, 2, 4)
    assert verify_qpower_coproduct(7, QQ, 2, 4)
    with pytest.raises(ValueError):
        verify_qpower_coproduct(1, QQ, None, 3)


def test_cx2_and_alpha():
    assert verify_cx2_and_alpha(QQ(1), 4)
    assert verify_cx2_and_alpha(QQ(2), 4)


def test_alpha_coefficients():
    alpha = unipotent_coproduct_coeffs(6)
    assert alpha[(1, 2)] == 1
    assert alpha[(1, 3)] == 3
    assert alpha[(2, 4)] == 3
    for n in range(7):
        assert alpha[(0, n)] == 1
    for t in range(1, 4):
        for n in range(2 * t):
            assert alpha.get((t, n), 0) == 0


def test_alpha13_against_direct_coproduct():
    # the coefficient of x1 (x) x1 x2 in Delta(x2^3) is alpha_1(3) gamma = 3 gamma
    gamma = QQ(2)
    q = row_instance(8, QQ, gamma)
    pres = sq_presentation(q.space)
    trunc = ideal_truncation(pres, 4, 1)
    d = trunc.nf_split(coproduct(TensorElem.word(q.space, (2, 2, 2))))
    coeff = QQ(d.terms.get(((1,), (1, 2))))
    assert coeff == QQ(3) * gamma


def test_unipotent_bridge():
    assert verify_unipotent_bridge(QQ(1), 5)
    assert verify_unipotent_bridge(QQ(3), 4)


def test_row7_root_of_unity_probe_gf5():
    # exploratory finite-field probe (not an acceptance check): gamma = 2
    # has multiplicative order 4 in GF(5), so the fourth power of the first
    # generator becomes primitive in the truncated quotient
    q = row_instance(7, GF(5), 2)
    rep = primitives_of_quotient(sq_presentation(q.space), 4)
    assert not rep.verdict
    assert rep.contains(TensorElem.word(q.space, (1, 1, 1, 1)))
    assert set(rep.levels) == {1, 4}
