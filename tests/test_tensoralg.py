import random
from fractions import Fraction

import pytest
from conftest import block_word

from quadlie.braided import BraidedSpace, all_words, mat_tensor, word_index
from quadlie.classify import conjugate
from quadlie.fields import GF, QQ
from quadlie.linalg import Mat
from quadlie.table import default_gamma, row_instance
from quadlie.tensoralg import (
    SplitTensorElem,
    TensorElem,
    block_braiding,
    braided_mul_split,
    coproduct,
    crossing,
    delta_component,
    delta_component_matrix,
    en_space,
)


def spaces_under_test():
    out = []
    for row in range(1, 9):
        out.append(row_instance(row, QQ, default_gamma(row, QQ)).space)
    return out


def test_block_braiding_base_cases():
    sp = row_instance(1, QQ).space
    assert block_braiding(sp, 1, 1) == sp.c
    assert block_braiding(sp, 0, 3) == Mat.identity(QQ, 8)
    assert block_braiding(sp, 3, 0) == Mat.identity(QQ, 8)


def test_block_braiding_flip_is_block_transposition():
    sp = row_instance(1, QQ).space
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        mat = block_braiding(sp, m, n)
        for w in all_words(2, m + n):
            vin = [0] * 2 ** (m + n)
            vin[word_index(w, 2)] = 1
            out = mat.apply(tuple(vin))
            moved = w[m:] + w[:m]
            expect = [0] * 2 ** (m + n)
            expect[word_index(moved, 2)] = 1
            assert list(out) == expect


def test_block_braiding_row8_column():
    q = row_instance(8, QQ, 1)
    col = block_braiding(q.space, 1, 1).col(word_index((2, 2), 2))
    expect = [0] * 4
    expect[word_index((2, 2), 2)] = 1
    expect[word_index((1, 1), 2)] = 1
    assert list(col) == expect


def test_block_braiding_matches_braid_word_route():
    # independent route: compose the dense adjacent braidings along the
    # block transposition's braid word, for every m + n <= 5 on each table
    # row at its default gamma and on one seeded dense conjugate of it
    from quadlie.nichols import braid_lift

    for field in (QQ, GF(5), GF(7)):
        rng = random.Random(f"block:{field!r}")
        for row in range(1, 9):
            q = row_instance(row, field, default_gamma(row, field))
            while True:  # no zero entry in alpha, so that the conjugate is dense
                alpha = Mat.from_rows(field, [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(2)] for _ in range(2)])
                if alpha.rank() == 2:
                    break
            for sp in (q.space, conjugate(q, alpha).space):
                for m in range(6):
                    for n in range(6 - m):
                        word = block_word(m, n)
                        assert block_braiding(sp, m, n) == braid_lift(sp, word, m + n), (field, row, m, n)


def test_crossing_rejects_a_letter_outside_the_space():
    # without the check, the slot action would read the index of (1, 3) on
    # two letters as that of another word, or as no word at all
    sp = row_instance(4, QQ, 2).space
    for m, w in [(1, (1, 3)), (1, (0, 2)), (2, (3, 1, 1))]:
        with pytest.raises(ValueError, match="outside 1..2"):
            crossing(sp, m, w)
    with pytest.raises(ValueError, match="outside 1..2"):
        coproduct(TensorElem.word(sp, (1, 3)))
    with pytest.raises(ValueError, match="no block of 3 letters"):
        crossing(sp, 3, (1, 2))


def test_braided_mul_unit_laws():
    sp = row_instance(4, QQ, 2).space
    one = SplitTensorElem.unit(sp)
    ab = SplitTensorElem.pure(sp, (1, 2), (2,))
    assert one * ab == ab
    assert ab * one == ab


def test_braided_mul_flip_crossings():
    sp = row_instance(1, QQ).space
    x1_one = SplitTensorElem.pure(sp, (1,), ())
    one_x2 = SplitTensorElem.pure(sp, (), (2,))
    x2_one = SplitTensorElem.pure(sp, (2,), ())
    one_x1 = SplitTensorElem.pure(sp, (), (1,))
    assert x1_one * one_x2 == SplitTensorElem.pure(sp, (1,), (2,))
    assert one_x1 * x2_one == SplitTensorElem.pure(sp, (2,), (1,))


def test_braided_mul_row8_inner_crossing():
    q = row_instance(8, QQ, 1)
    sp = q.space
    lhs = SplitTensorElem.pure(sp, (), (2,)) * SplitTensorElem.pure(sp, (2,), ())
    expect = SplitTensorElem(sp, {((2,), (2,)): QQ(1), ((1,), (1,)): QQ(1)})
    assert lhs == expect


def test_coproduct_letters_primitive():
    sp = row_instance(1, QQ).space
    d = coproduct(TensorElem.letter(sp, 1))
    assert d == SplitTensorElem(sp, {((1,), ()): QQ(1), ((), (1,)): QQ(1)})


def test_delta11_equals_id_plus_c():
    for sp in spaces_under_test():
        m = delta_component_matrix(sp, 1, 1)
        assert m == sp.c + Mat.identity(QQ, 4)


def test_flip_unshuffle_oracle():
    sp = row_instance(1, QQ).space
    for w in all_words(2, 3):
        comp = delta_component(TensorElem.word(sp, w), 1, 2)
        # classical unshuffle: pick one position out, keep order of the rest
        expect = {}
        for i in range(3):
            key = ((w[i],), w[:i] + w[i + 1 :])
            expect[key] = expect.get(key, QQ(0)) + QQ(1)
        assert comp == SplitTensorElem(sp, expect)


def test_counit_law_right_component():
    for sp in spaces_under_test():
        for deg in (1, 2, 3):
            for w in all_words(2, deg):
                comp = coproduct(TensorElem.word(sp, w)).bidegree_part(deg, 0)
                assert comp == SplitTensorElem.pure(sp, w, ())
                comp0 = coproduct(TensorElem.word(sp, w)).bidegree_part(0, deg)
                assert comp0 == SplitTensorElem.pure(sp, (), w)


def test_coassociativity_components():
    # (Delta^{n,m} (x) Id) Delta^{n+m,p} = (Id (x) Delta^{m,p}) Delta^{n,m+p}
    for sp in spaces_under_test():
        for n, m, p in [(1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2)]:
            total = n + m + p
            d_nm = delta_component_matrix(sp, n, m)
            d_total_right = delta_component_matrix(sp, n + m, p)
            d_mp = delta_component_matrix(sp, m, p)
            d_total_left = delta_component_matrix(sp, n, m + p)
            eye_p = Mat.identity(QQ, 2**p)
            eye_n = Mat.identity(QQ, 2**n)
            lhs = mat_tensor(QQ, d_nm, eye_p) @ d_total_right
            rhs = mat_tensor(QQ, eye_n, d_mp) @ d_total_left
            assert lhs == rhs


def test_bialgebra_compatibility_on_words():
    rng = random.Random(9)
    for sp in spaces_under_test():
        for _ in range(6):
            lu = rng.randint(1, 2)
            lv = rng.randint(1, 4 - lu)
            u = tuple(rng.randint(1, 2) for _ in range(lu))
            v = tuple(rng.randint(1, 2) for _ in range(lv))
            prod = TensorElem.word(sp, u) * TensorElem.word(sp, v)
            lhs = coproduct(prod)
            rhs = braided_mul_split(
                coproduct(TensorElem.word(sp, u)), coproduct(TensorElem.word(sp, v))
            )
            assert lhs == rhs


def test_braiding_coproduct_compatibility():
    # (Id_p (x) Delta^{n,m}) c^{n+m,p} = (c^{n,p} (x) Id_m)(Id_n (x) c^{m,p})(Delta^{n,m} (x) Id_p)
    for sp in spaces_under_test():
        for n, m, p in [(1, 1, 1)]:
            d_nm = delta_component_matrix(sp, n, m)
            lhs = mat_tensor(QQ, Mat.identity(QQ, 2**p), d_nm) @ block_braiding(sp, n + m, p)
            step1 = mat_tensor(QQ, d_nm, Mat.identity(QQ, 2**p))
            step2 = mat_tensor(
                QQ,
                Mat.identity(QQ, 2**n),
                block_braiding(sp, m, p),
            )
            step3 = mat_tensor(QQ, block_braiding(sp, n, p), Mat.identity(QQ, 2**m))
            rhs = step3 @ step2 @ step1
            assert lhs == rhs
        # and the dual-sided version (c4)
        for n, m, p in [(1, 1, 1)]:
            d_mp = delta_component_matrix(sp, m, p)
            lhs = mat_tensor(QQ, d_mp, Mat.identity(QQ, 2**n)) @ block_braiding(sp, n, m + p)
            step1 = mat_tensor(QQ, Mat.identity(QQ, 2**n), d_mp)
            step2 = mat_tensor(QQ, block_braiding(sp, n, m), Mat.identity(QQ, 2**p))
            step3 = mat_tensor(QQ, Mat.identity(QQ, 2**m), block_braiding(sp, n, p))
            rhs = step3 @ step2 @ step1
            assert lhs == rhs


def test_connectedness():
    for sp in spaces_under_test():
        for k in (1, 2, 3):
            assert block_braiding(sp, k, 0) == Mat.identity(QQ, 2**k)
            assert block_braiding(sp, 0, k) == Mat.identity(QQ, 2**k)


def test_en_space_consistency_with_e2():
    for sp in spaces_under_test():
        assert en_space(sp, 2) == sp.e2()


def test_e3_flip_witt_dimension():
    # free Lie algebra in two generators has dimension (2^3 - 2)/3 = 2 in
    # degree 3 and (2^4 - 2^2)/4 = 3 in degree 4
    sp = row_instance(1, QQ).space
    assert en_space(sp, 3).dim == 2
    assert en_space(sp, 4).dim == 3


def test_en_space_dim1_minus_one():
    c = Mat.from_rows(QQ, [[-1]])
    sp = BraidedSpace(QQ, 1, c)
    assert sp.e2().dim == 1  # all of the one-dimensional square


def test_tensor_elem_algebra():
    sp = row_instance(1, QQ).space
    a = TensorElem(sp, {(1,): QQ(1), (2, 1): QQ(2)})
    b = TensorElem(sp, {(): QQ(1), (2,): QQ(-1)})
    prod = a * b
    assert prod.terms == {
        (1,): 1,
        (2, 1): 2,
        (1, 2): -1,
        (2, 1, 2): -2,
    }
    assert (a - a).is_zero()
    assert a.homogeneous_part(2).terms == {(2, 1): 2}


def test_tensor_elem_values_pinned():
    # values of the parent implementation, before the two element classes
    # shared one base
    sp = row_instance(2, QQ).space
    assert repr(TensorElem.word(sp, (2, 1), Fraction(-3, 2)) + TensorElem.unit(sp)) == "1*1 + -3/2*x2x1"
    assert (
        repr(coproduct(TensorElem.word(sp, (2, 1))))
        == "1*x2x1(x)1 + 1*x1(x)x1 + 1*x1(x)x2 + 1*x2(x)x1 + 1*1(x)x2x1"
    )
    assert repr(TensorElem(sp)) == repr(SplitTensorElem(sp)) == "0"
    assert (TensorElem(sp) == SplitTensorElem(sp)) is False
    assert (SplitTensorElem(sp) == TensorElem(sp)) is False
    assert hash(TensorElem.unit(sp)) == hash(TensorElem.unit(sp))
    with pytest.raises(TypeError):
        hash(SplitTensorElem(sp))
