import random

import pytest

from quadlie.brackets import QuadraticLieAlgebra
from quadlie.classify import (
    InternalContradiction,
    PreconditionViolated,
    UnsupportedField,
    canonical_form,
    conjugate,
    iso_bruteforce,
)
from quadlie.fields import GF, QQ
from quadlie.linalg import Mat
from quadlie.table import GAMMA_RULES, default_gamma, row_instance


def random_invertible(field, rng, pool=3):
    while True:
        if field.is_rationals:
            a = [[QQ(rng.randint(-pool, pool)) / QQ(rng.randint(1, 2)) for _ in range(2)] for _ in range(2)]
        else:
            a = [[field(rng.randrange(field.p)) for _ in range(2)] for _ in range(2)]
        m = Mat.from_rows(field, a)
        f = [[field(x) for x in r] for r in m.a]
        if f[0][0] * f[1][1] - f[0][1] * f[1][0]:
            return m


def test_idempotence_on_table_rows():
    for row in range(1, 9):
        q = row_instance(row, QQ, default_gamma(row, QQ))
        res = canonical_form(q)
        assert res.row == row
        assert res.change_of_basis == Mat.identity(QQ, 2)


def test_random_conjugation_reclassifies():
    rng = random.Random(23)
    for row in range(1, 9):
        g = default_gamma(row, QQ)
        q = row_instance(row, QQ, g)
        for _ in range(10):
            alpha = random_invertible(QQ, rng)
            moved = conjugate(q, alpha)
            res = canonical_form(moved)
            assert res.row == row
            # the returned change of basis lands exactly on the table form
            target = row_instance(row, QQ, res.gamma if GAMMA_RULES[row] else None)
            back = conjugate(moved, res.change_of_basis)
            assert back.space.c == target.space.c
            assert back.beta == target.beta


def test_gamma_exact_for_rows_5_to_7():
    rng = random.Random(5)
    for row, g in [(6, 3), (6, QQ(1) / QQ(2)), (7, 5), (7, 0)]:
        q = row_instance(row, QQ, g)
        for _ in range(5):
            res = canonical_form(conjugate(q, random_invertible(QQ, rng)))
            assert res.row == row
            assert res.gamma == QQ(g)


def test_gamma_square_class_for_rows_3_4_8():
    rng = random.Random(6)
    for row in (3, 4, 8):
        for g in (2, 3, 5):
            q = row_instance(row, QQ, g)
            for _ in range(3):
                res = canonical_form(conjugate(q, random_invertible(QQ, rng)))
                assert res.row == row
                ratio = res.gamma / QQ(g)
                assert ratio.is_square()
                assert res.gamma_square_class_note


def test_square_gamma_normalizes_to_one():
    for row in (3, 4, 8):
        for g in (1, 4, 9, QQ(4) / QQ(9)):
            res = canonical_form(row_instance(row, QQ, g))
            assert res.gamma == QQ(1)
            assert not res.gamma_square_class_note
    # gamma = 0 stays 0 where the table permits it
    for row in (3, 4):
        res = canonical_form(row_instance(row, QQ, 0))
        assert res.gamma == QQ(0)


def test_row7_gamma_zero_allowed():
    res = canonical_form(row_instance(7, QQ, 0))
    assert res.row == 7
    assert res.gamma == QQ(0)


def test_preconditions():
    q = row_instance(1, QQ)
    with pytest.raises(PreconditionViolated):
        canonical_form(QuadraticLieAlgebra(q.space, Mat.zero(QQ, 2, 4)))
    # corrupt bracket: fails the verification gate
    bad = Mat.from_rows(QQ, [[1, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(PreconditionViolated):
        canonical_form(QuadraticLieAlgebra(q.space, bad))


def test_eliminated_branch_is_reachable_error():
    # zero corner with a moved diagonal: the proof's dead branch; reachable
    # only by bypassing verification with a corrupt structure
    from quadlie.braided import BraidedSpace

    rows = [[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 2]]
    sp = BraidedSpace(QQ, 2, Mat.from_rows(QQ, rows), check=False)
    beta = Mat.from_rows(QQ, [[0, 1, -1, 0], [0, 0, 0, 0]])
    q = QuadraticLieAlgebra(sp, beta)
    with pytest.raises(InternalContradiction):
        canonical_form(q, skip_verification=True)


def test_forced_pattern_is_reachable_error():
    # a braiding violating the categorical zero pattern of Im(b)
    from quadlie.braided import BraidedSpace

    rows = [[1, 0, 0, 0], [1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    sp = BraidedSpace(QQ, 2, Mat.from_rows(QQ, rows), check=False)
    beta = Mat.from_rows(QQ, [[0, 1, -1, 0], [0, 0, 0, 0]])
    with pytest.raises(InternalContradiction):
        canonical_form(QuadraticLieAlgebra(sp, beta), skip_verification=True)


def test_iso_bruteforce_self():
    F = GF(5)
    q = row_instance(1, F)
    alpha = iso_bruteforce(q, q, "finite_exhaustive")
    assert alpha is not None
    moved = conjugate(q, alpha)
    assert moved.space.c == q.space.c and moved.beta == q.beta


def test_iso_bruteforce_distinct_rows_gf5():
    F = GF(5)
    a = row_instance(1, F)
    b = row_instance(2, F)
    assert iso_bruteforce(a, b, "finite_exhaustive") is None


def test_iso_bruteforce_same_row_conjugates():
    F = GF(7)
    q = row_instance(5, F)
    alpha = Mat.from_rows(F, [[2, 3], [0, 1]])
    moved = conjugate(q, alpha)
    found = iso_bruteforce(q, moved, "finite_exhaustive")
    assert found is not None
    again = conjugate(q, found)
    assert again.space.c == moved.space.c and again.beta == moved.beta


def test_iso_structured_square_classes():
    a = row_instance(3, QQ, 2)
    b = row_instance(3, QQ, 8)
    alpha = iso_bruteforce(a, b, "rational_structured")
    assert alpha is not None
    moved = conjugate(a, alpha)
    assert moved.space.c == b.space.c and moved.beta == b.beta

    c = row_instance(3, QQ, 3)  # 3/2 is not a rational square
    assert iso_bruteforce(a, c, "rational_structured") is None

    r1 = row_instance(1, QQ)
    r2 = row_instance(2, QQ)
    assert iso_bruteforce(r1, r2, "rational_structured") is None


def test_iso_structured_row4_scaling():
    a = row_instance(4, QQ, 2)
    b = row_instance(4, QQ, 8)
    alpha = iso_bruteforce(a, b, "rational_structured")
    assert alpha is not None
    moved = conjugate(a, alpha)
    assert moved.space.c == b.space.c and moved.beta == b.beta


def test_iso_exhaustive_rejects_rationals():
    a = row_instance(1, QQ)
    with pytest.raises(UnsupportedField):
        iso_bruteforce(a, a, "finite_exhaustive")


def test_classification_over_prime_fields():
    rng = random.Random(41)
    for p in (5, 7):
        F = GF(p)
        for row in range(1, 9):
            g = default_gamma(row, F)
            q = row_instance(row, F, g)
            for _ in range(5):
                alpha = random_invertible(F, rng)
                res = canonical_form(conjugate(q, alpha))
                assert res.row == row
                if row in (5, 6, 7):
                    assert res.gamma == (F(g) if g is not None else None)
                elif row in (3, 4, 8) and g:
                    # same square class; squares normalize to 1
                    ratio = res.gamma / F(g)
                    assert ratio.is_square()


def test_wild_verified_structures_land_in_the_table():
    # completeness: independently generated verified structures with
    # rank-one bracket image classify into some canonical row, and the
    # returned basis change lands exactly on it
    import itertools

    from quadlie.braided import split_minpoly
    from quadlie.brackets import random_verified_brackets
    from quadlie.linalg import column_space
    from quadlie.table import GAMMA_RULES

    F = GF(5)
    rng = random.Random(17)
    spaces = []
    # a seeded sample of diagonal-type braidings (Yang-Baxter for free)
    from quadlie.braided import BraidedSpace

    combos = list(itertools.product(range(5), repeat=4))
    rng.shuffle(combos)
    for q11, q21, q12, q22 in combos[:250]:
        rows = [[0] * 4 for _ in range(4)]
        for (i, j), qv in {(0, 0): q11, (1, 0): q21, (0, 1): q12, (1, 1): q22}.items():
            rows[j + 2 * i][i + 2 * j] = qv
        spaces.append(BraidedSpace(F, 2, Mat.from_rows(F, rows), check=False))
    classified = 0
    seen_rows = set()
    for k, sp in enumerate(spaces):
        try:
            if split_minpoly(sp) is None:
                continue
        except Exception:
            continue
        for q in random_verified_brackets(sp, count=4, seed=500 + k):
            if column_space(q.beta).dim != 1:
                continue
            res = canonical_form(q)
            assert res.row in range(1, 9)
            g = res.gamma if GAMMA_RULES[res.row] is not None else None
            target = row_instance(res.row, F, g)
            moved = conjugate(q, res.change_of_basis)
            assert moved.space.c == target.space.c
            assert moved.beta == target.beta
            classified += 1
            seen_rows.add(res.row)
    assert classified >= 20, f"only {classified} wild structures classified"
    assert len(seen_rows) >= 2, f"sample hit only rows {seen_rows}"


def test_minimal_polynomial_separates_over_small_fields():
    # structures whose braidings have different minimal polynomials are
    # never matched by the exhaustive search
    F5, F7 = GF(5), GF(7)
    pairs = [
        (row_instance(1, F5), row_instance(5, F5)),  # X^2-1 vs (X^2-1)X
        (row_instance(4, F5, 2), row_instance(8, F5, 2)),  # X^2-1 vs (X^2-1)(X-1)
        (row_instance(1, F7), row_instance(5, F7)),
        (row_instance(2, F7), row_instance(7, F7, 2)),  # X^2-1 vs (X^2-1)(X-2)
    ]
    for a, b in pairs:
        assert iso_bruteforce(a, b, "finite_exhaustive") is None
