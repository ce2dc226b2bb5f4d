import math
import random
from fractions import Fraction
from itertools import product

import pytest

from quadlie.braided import BraidedSpace, diagonal_braiding, h_of_c, lift_to_slot, split_minpoly
from quadlie.brackets import (
    BasisMismatch,
    Inconsistent,
    QuadraticLieAlgebra,
    RestrictedBracket,
    axiom_check,
    bracket_combination,
    check_dim1_rigidity,
    derived_antisym_plus,
    diagonal_bracket_basis,
    dim1_instance,
    dim1_nonzero_brackets,
    image_subalgebra,
    lift_bracket,
    random_verified_brackets,
    restrict_bracket,
    solve_linear_bracket_space,
    verify_lifted,
    verify_qbracket,
)
from quadlie.classify import conjugate
from quadlie.fields import GF, QQ, CharTwo
from quadlie.linalg import Mat
from quadlie.table import GAMMA_RULES, default_gamma, gamma_allowed, row_instance


def all_rows(field=QQ):
    return [row_instance(r, field, default_gamma(r, field)) for r in range(1, 9)]


def test_verify_lifted_table_rows():
    for q in all_rows():
        rep = verify_lifted(q)
        assert rep.ok, rep


def test_verify_lifted_gamma_sweep():
    for row in range(1, 9):
        if GAMMA_RULES[row] is None:
            continue
        for g in (0, 1, 2):
            if gamma_allowed(row, QQ, g):
                assert verify_lifted(row_instance(row, QQ, g)).ok, (row, g)


def test_zero_bracket_always_verifies():
    for q in all_rows():
        zero = QuadraticLieAlgebra(q.space, Mat.zero(QQ, 2, 4))
        assert verify_lifted(zero).ok


def test_corrupted_bracket_fails():
    q = row_instance(1, QQ)
    bad = [row[:] for row in q.beta.a]
    bad[1][1] = 1  # extra second-row entry no longer kills Im(c + Id)
    rep = verify_lifted(QuadraticLieAlgebra(q.space, Mat(QQ, bad)))
    assert not rep.antisym
    assert not rep.ok


def test_mismatched_bracket_fails_compatibility():
    # the antisymmetric pair bracket on the row-4 braiding passes
    # antisymmetry but not the braiding compatibility
    q4 = row_instance(4, QQ, 1)
    foreign = Mat.from_rows(QQ, [[0, 1, -1, 0], [0, 0, 0, 0]])
    rep = verify_lifted(QuadraticLieAlgebra(q4.space, foreign))
    assert rep.antisym
    assert not (rep.bracket_left and rep.bracket_right)
    assert not rep.ok


def test_char_two_rejected():
    F2 = GF(2)
    sp = BraidedSpace(F2, 2, Mat.identity(F2, 4))
    with pytest.raises(CharTwo):
        verify_lifted(QuadraticLieAlgebra(sp, Mat.zero(F2, 2, 4)))


def test_restrict_bracket_frozen_values():
    # row 1: the restricted bracket sends x2(x)x1 - x1(x)x2 to -x1
    q = row_instance(1, QQ)
    rb = restrict_bracket(q, split_minpoly(q.space))
    assert rb.beta_bar == Mat.from_rows(QQ, [[-1], [0]])
    # row 8: h = (X-1)^2 maps x2(x)x1 to 2(x2(x)x1 - x1(x)x2), so the
    # restricted bracket must send the echelon generator to x1/2
    q8 = row_instance(8, QQ, 1)
    split8 = split_minpoly(q8.space)
    hc = h_of_c(q8.space, split8)
    assert list(hc.col(1)) == [0, 2, -2, 0]
    rb8 = restrict_bracket(q8, split8)
    assert rb8.beta_bar == Mat.from_rows(QQ, [[QQ(1) / QQ(2)], [0]])


def test_lift_restrict_roundtrip_all_rows():
    for q in all_rows():
        split = split_minpoly(q.space)
        rb = restrict_bracket(q, split)
        assert verify_qbracket(rb).ok
        q2 = lift_bracket(rb, split)
        assert q2.beta == q.beta
        rb2 = restrict_bracket(q2, split)
        assert rb2.beta_bar == rb.beta_bar


def test_lift_zero():
    q = row_instance(3, QQ, 1)
    split = split_minpoly(q.space)
    e2 = q.space.e2()
    zero = RestrictedBracket(q.space, e2, Mat.zero(QQ, 2, e2.dim))
    assert verify_qbracket(zero).ok
    assert lift_bracket(zero, split).beta.is_zero()


def test_restrict_inconsistent_bracket():
    # the flip sends x1(x)x1 into Im(c + Id); a bracket not killing it
    # cannot factor through the primitives
    q = row_instance(1, QQ)
    bad = Mat.from_rows(QQ, [[1, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(Inconsistent):
        restrict_bracket(QuadraticLieAlgebra(q.space, bad), split_minpoly(q.space))


def test_lift_bracket_rejects_invalid_split():
    # an invalid factorization whose evaluation escapes the primitive
    # space is detected by the lift
    from quadlie.braided import MinpolySplit
    from quadlie.linalg import HypothesisViolated, Poly

    q1 = row_instance(1, QQ)
    rb1 = restrict_bracket(q1, split_minpoly(q1.space))
    fake = MinpolySplit(
        f=Poly(QQ, [0, 1, 1]), h=Poly(QQ, [0, 1]), h_at_minus1=QQ(-1)
    )  # h(c) = c has full image on the invertible flip
    with pytest.raises(HypothesisViolated):
        lift_bracket(RestrictedBracket(q1.space, q1.space.e2(), rb1.beta_bar), fake)


def test_verify_qbracket_rejects_wrong_basis():
    q = row_instance(1, QQ)
    bigger = BraidedSpace(QQ, 2, Mat.identity(QQ, 4).scale(QQ(-1)))
    with pytest.raises(BasisMismatch):
        verify_qbracket(RestrictedBracket(q.space, bigger.e2(), Mat.zero(QQ, 2, 4)))


def test_verify_qbracket_corrupted_row3():
    # sending x1(x)x1 to x2 is incompatible with the braiding
    q = row_instance(3, QQ, 1)
    e2 = q.space.e2()
    assert e2.basis[0] == (1, 0, 0, 0)
    bb = Mat.from_rows(QQ, [[0, -1], [1, 0]])  # e1 -> x2, e2 -> -x1
    rep = verify_qbracket(RestrictedBracket(q.space, e2, bb))
    assert not rep.bracket
    assert not rep.ok


def test_image_subalgebra_rows():
    # rank-one image: the restriction carries the zero bracket
    for row in (1, 4):
        q = row_instance(row, QQ, default_gamma(row, QQ))
        sub = image_subalgebra(q)
        assert sub.space.dim == 1
        assert sub.beta.is_zero()
        assert verify_lifted(sub).ok
    q4 = row_instance(4, QQ, 1)
    sub4 = image_subalgebra(q4)
    assert sub4.space.c == Mat.from_rows(QQ, [[1]])

    zero = QuadraticLieAlgebra(q4.space, Mat.zero(QQ, 2, 4))
    assert image_subalgebra(zero) is None


def test_dim1_rigidity_exhaustive():
    for p in (3, 5, 7):
        assert check_dim1_rigidity(GF(p))


def test_dim1_search_finds_the_characteristic_two_bracket():
    # positive control: the same search finds the one nonzero bracket that
    # exists, over GF(2), where b (c + Id) = 2 b vanishes; the rigidity
    # check itself still refuses GF(2)
    assert dim1_nonzero_brackets(GF(2)) == [(1, 1)]
    for p in (3, 5, 7):
        assert dim1_nonzero_brackets(GF(p)) == []
    with pytest.raises(ValueError, match="odd prime"):
        check_dim1_rigidity(GF(2))
    with pytest.raises(ValueError, match="prime field"):
        dim1_nonzero_brackets(QQ)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_dim1_check_matches_verify_lifted(p):
    field = GF(p)
    answers = set()
    for gamma in range(p):
        holds = axiom_check(BraidedSpace(field, 1, Mat(field, [[gamma]]), check=False))
        for lam in range(p):
            got = holds([[lam]])
            assert got == verify_lifted(dim1_instance(field, gamma, lam)).ok, (gamma, lam)
            answers.add(got)
    assert answers == {True, False}


@pytest.mark.parametrize("p", [5, 7])
def test_axiom_check_matches_verify_lifted_on_three_letters(p):
    # diagonal braidings on three letters with q_ij q_ji = 1 off the
    # diagonal: random brackets, and random points of the linear bracket
    # space with one to all basis coefficients nonzero
    field = GF(p)
    rng = random.Random(p)
    seen = set()
    for _ in range(16):
        q = [[0] * 3 for _ in range(3)]
        for i in range(3):
            q[i][i] = rng.choice([1, p - 1, rng.randrange(p)])
            for j in range(i):
                q[i][j] = rng.choice([1, p - 1, rng.randrange(1, p)])
                q[j][i] = pow(q[i][j], -1, p)
        space = BraidedSpace(field, 3, Mat(field, diagonal_braiding(3, q)), check=False)
        holds = axiom_check(space)
        basis = solve_linear_bracket_space(space)
        candidates = [[[rng.randrange(p) for _ in range(9)] for _ in range(3)] for _ in range(2)]
        for _ in range(4 if basis else 0):
            coeffs = [0] * len(basis)
            for k in rng.sample(range(len(basis)), rng.randint(1, len(basis))):
                coeffs[k] = rng.randrange(1, p)
            candidates.append(bracket_combination(coeffs, basis, p))
        for beta in candidates:
            got = holds(beta)
            rep = verify_lifted(QuadraticLieAlgebra(space, Mat(field, beta)))
            assert got == rep.ok, (q, beta)
            seen.add((got, rep.antisym and rep.bracket_left and rep.bracket_right))
    # nonzero brackets that pass, that fail a linear axiom, and that pass
    # the linear axioms but fail Jacobi
    assert seen == {(True, True), (False, False), (False, True)}


def test_dim1_specific_failure_over_q():
    # c = -1 with a unit bracket passes antisymmetry but not compatibility
    q = dim1_instance(QQ, -1, 1)
    rep = verify_lifted(q)
    assert rep.antisym
    assert not (rep.bracket_left and rep.bracket_right)


def test_derived_antisym_plus():
    q3 = row_instance(3, QQ, 1)
    assert derived_antisym_plus(q3)
    for q in all_rows():
        assert derived_antisym_plus(q)  # vacuous on zero-e2bar rows


def test_derived_antisym_plus_random_gf5():
    sp = row_instance(3, GF(5), 2).space
    found = random_verified_brackets(sp, count=5, seed=31)
    assert found
    for q in found:
        assert derived_antisym_plus(q)


def _kills_e2bar(space, mat):
    return all(not x for v in space.e2bar().basis for x in mat.apply(v))


def _lift(q, slot):
    """b (x) Id (slot 1) or Id (x) b (slot 2) acting on V^(x)3."""
    return lift_to_slot(q.beta, slot, 3, q.space.dim, 2, 1)


def test_jacobi_equivalent_to_one_sided_vanishing():
    # in odd characteristic, with antisymmetry and compatibility in place,
    # the Jacobi condition holds iff b b1 kills the domain iff b b2 does
    cases = []
    q3 = row_instance(3, QQ, 1)
    cases.append(q3)
    sp5 = row_instance(3, GF(5), 2).space
    cases.extend(random_verified_brackets(sp5, count=8, seed=77))
    for q in cases:
        rep = verify_lifted(q)
        assert rep.antisym and rep.bracket_left and rep.bracket_right
        one = _kills_e2bar(q.space, q.beta @ _lift(q, 1))
        two = _kills_e2bar(q.space, q.beta @ _lift(q, 2))
        assert rep.jacobi == one == two

    # a Jacobi violator (which also breaks compatibility) fails both
    # one-sided vanishing conditions as well
    from quadlie.brackets import RestrictedBracket as RB

    q = row_instance(3, QQ, 1)
    split = split_minpoly(q.space)
    bb = Mat.from_rows(QQ, [[0, -1], [1, 0]])
    bad = lift_bracket(RB(q.space, q.space.e2(), bb), split)
    rep = verify_lifted(bad)
    assert rep.antisym and not rep.jacobi and not rep.bracket_left
    assert not _kills_e2bar(bad.space, bad.beta @ _lift(bad, 1))
    assert not _kills_e2bar(bad.space, bad.beta @ _lift(bad, 2))


def test_scaling_invariance():
    # nonzero rescalings of the bracket stay verified, and the scalar map
    # intertwines the two structures
    for q in all_rows():
        lam = QQ(3)
        scaled = QuadraticLieAlgebra(q.space, q.beta.scale(lam))
        assert verify_lifted(scaled).ok
        f = Mat.identity(QQ, 2).scale(lam)
        # f . (lam beta) = beta . (f (x) f)
        from quadlie.braided import mat_tensor

        assert f @ scaled.beta == q.beta @ mat_tensor(QQ, f, f)
        # equivalently, conjugating by lam Id divides the bracket by lam
        assert conjugate(scaled, f).beta == q.beta


def test_solve_linear_bracket_space_contains_table_bracket():
    for q in all_rows():
        basis = solve_linear_bracket_space(q.space)
        # the table bracket lies in the affine span of the solution basis
        from quadlie.linalg import Subspace

        vecs = [tuple(x for row in b.a for x in row) for b in basis]
        target = tuple(x for row in q.beta.a for x in row)
        sub = Subspace(QQ, 8, vecs)
        assert sub.contains(target)


def test_random_verified_brackets_deterministic():
    sp = row_instance(1, GF(5)).space
    a = random_verified_brackets(sp, count=10, seed=17)
    b = random_verified_brackets(sp, count=10, seed=17)
    assert [q.beta for q in a] == [q.beta for q in b]
    for q in a:
        assert verify_lifted(q).ok


def _raw_space(field, rows):
    return BraidedSpace(field, math.isqrt(len(rows)), Mat.from_rows(field, rows), check=False)


def test_bracket_space_matches_unit_bracket_oracle(unit_bracket_oracle):
    # the constraint rows written from c's entries span the same kernel as
    # the unit brackets pushed through the slot lifts, basis for basis
    import random

    from quadlie.appendix import _survey_braidings

    rng = random.Random(4)
    spaces = [_raw_space(GF(3), rows) for rows, _ in _survey_braidings(GF(3))]
    spaces += [_raw_space(GF(5), rows) for rows, _ in rng.sample(list(_survey_braidings(GF(5))), 200)]
    for q in all_rows():
        spaces.append(q.space)
        for _ in range(3):
            while True:
                alpha = Mat.from_rows(QQ, [[rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(2)] for _ in range(2)])
                if alpha.rank() == 2:
                    break
            spaces.append(conjugate(q, alpha).space)
    for field, gamma in ((QQ, -1), (QQ, 3), (GF(5), 4), (GF(5), 2)):
        spaces.append(_raw_space(field, [[gamma]]))
    # dimension three: the flip, whose brackets are the antisymmetric maps
    flip = [[0] * 9 for _ in range(9)]
    for i in range(3):
        for j in range(3):
            flip[j + 3 * i][i + 3 * j] = 1
    spaces.append(_raw_space(QQ, flip))
    dims = set()
    for sp in spaces:
        basis = solve_linear_bracket_space(sp)
        assert basis == unit_bracket_oracle(sp), sp.c
        dims.add(len(basis))
    assert {0, 1, 2, 9} <= dims


def _diagonal_space(field, q):
    return BraidedSpace(field, len(q), Mat(field, diagonal_braiding(len(q), q)), check=False)


def _solver_basis(field, q):
    return [b.a for b in solve_linear_bracket_space(_diagonal_space(field, q))]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_diagonal_closed_form_equals_solver_on_two_letters(p):
    # every two-letter diagonal braiding over GF(p), zero q_ij included:
    # the closed form is the solver's canonical basis, vector for vector
    field = GF(p)
    dims = set()
    for q11, q21, q12, q22 in product(range(p), repeat=4):
        q = [[q11, q12], [q21, q22]]
        basis = diagonal_bracket_basis(q, p)
        assert basis == _solver_basis(field, q), q
        dims.add(len(basis))
    assert {0, 1, 2} <= dims


def test_diagonal_closed_form_equals_solver_on_three_letters_gf3():
    # the 512 invertible diagonal braidings on three letters over GF(3)
    field = GF(3)
    dims = set()
    for qs in product((1, 2), repeat=9):
        q = [list(qs[0:3]), list(qs[3:6]), list(qs[6:9])]
        basis = diagonal_bracket_basis(q, 3)
        assert basis == _solver_basis(field, q), q
        dims.add(len(basis))
    assert dims == {0, 2, 3, 4, 6, 7, 9}


def test_diagonal_closed_form_equals_solver_over_q():
    # seeded q over Q on two and three letters, with inverse pairs
    # q_ji = 1 / q_ij planted so that the spaces are not all zero
    rng = random.Random(26)
    dims = set()
    for _ in range(200):
        n = rng.choice((2, 3))
        q = [[rng.choice((1, -1, 0, Fraction(rng.randint(-4, 4), rng.randint(1, 4)))) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                if q[i][j] and rng.random() < 0.7:
                    q[j][i] = 1 / Fraction(q[i][j])
        basis = diagonal_bracket_basis(q)
        assert basis == _solver_basis(QQ, q), q
        dims.add(len(basis))
    assert len(dims) >= 4


def _lie_brackets_gf3():
    """Every antisymmetric bracket on F_3^3 that satisfies the classical
    Jacobi identity, by brute force over its 3^9 values [x_j, x_i], i < j,
    as n x n^2 rows: row k, column i + 3 j holds the x_k coefficient of
    [x_i, x_j]."""
    p, n = 3, 3
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    found = set()
    for values in product(range(p), repeat=len(pairs) * n):
        table = {}
        for t, (i, j) in enumerate(pairs):
            v = values[t * n : (t + 1) * n]
            table[j, i] = v
            table[i, j] = tuple(-x % p for x in v)
        for i in range(n):
            table[i, i] = (0,) * n

        def br(u, v):
            out = [0] * n
            for i, x in enumerate(u):
                for j, y in enumerate(v):
                    if x and y:
                        for k, z in enumerate(table[i, j]):
                            out[k] = (out[k] + x * y * z) % p
            return out

        unit = [[int(i == k) for k in range(n)] for i in range(n)]
        if all(
            not any((a + b + c) % p for a, b, c in zip(br(x, br(y, z)), br(y, br(z, x)), br(z, br(x, y))))
            for x, y, z in product(unit, repeat=3)
        ):
            found.add(tuple(tuple(table[i, j][k] for j in range(n) for i in range(n)) for k in range(n)))
    return found


def test_flip_closed_form_brackets_are_the_lie_brackets_gf3():
    # positive control of the closed form and of axiom_check on three
    # letters: under the flip the axioms say that b is a Lie bracket, so the
    # verified points of its 9-dimensional space are the Lie brackets on
    # F_3^3 found by brute force, sl_2 (rank three) among them
    field, p = GF(3), 3
    q = [[1] * 3 for _ in range(3)]
    basis = diagonal_bracket_basis(q, p)
    assert len(basis) == 9
    holds = axiom_check(_diagonal_space(field, q))
    mats = [Mat(field, b) for b in basis]
    verified = set()
    for coeffs in product(range(p), repeat=9):
        beta = bracket_combination(coeffs, mats, p)
        if holds(beta):
            verified.add(tuple(map(tuple, beta)))
    assert verified == _lie_brackets_gf3()
    assert any(Mat(field, b).rank() == 3 for b in verified)


def test_linear_echelon_equals_the_echelon_of_every_axiom_row(monkeypatch):
    # the space's echelon stops reading rows at rank n^3; it must equal the
    # echelon of every row of linear_axiom_rows, on spaces that stop early
    # and on spaces with brackets, which read every row
    from itertools import chain, product

    import quadlie.brackets as brackets
    from quadlie.appendix import _rank1_case_shapes, _rank2_case_shapes, _survey_braidings
    from quadlie.linalg import SparseEchelon

    spaces = [_raw_space(GF(3), c) for c in chain(_rank2_case_shapes(3), _rank1_case_shapes(3))]
    spaces += [_raw_space(GF(5), rows) for rows, _ in _survey_braidings(GF(5))]
    tables = [q.space for field in (QQ, GF(3)) for q in all_rows(field)]
    # three letters, diagonal over GF(3); all ones is the flip, whose
    # brackets are the ordinary Lie brackets
    diagonals = [
        BraidedSpace(GF(3), 3, Mat(GF(3), diagonal_braiding(3, [q[:3], q[3:6], q[6:]])), check=False)
        for q in product((1, 2), repeat=9)
    ]
    flip = diagonals[0]
    generic = brackets.linear_axiom_rows
    read = {}

    def counted(c, n, p=None):
        key = (tuple(map(tuple, c)), p)
        read[key] = 0

        def count(group):
            for row in group:
                read[key] += 1
                yield row

        return tuple(count(g) for g in generic(c, n, p))

    monkeypatch.setattr(brackets, "linear_axiom_rows", counted)
    stopped, complete = set(), set()
    for sp in spaces + tables + diagonals:
        ech = brackets._linear_echelon(sp)
        every = [r for g in generic(sp.c.a, sp.dim, sp.field.p) for r in g]
        assert ech.rows == SparseEchelon(sp.field, every).rows, sp.c
        if read[(tuple(map(tuple, sp.c.a)), sp.field.p)] < len(every):
            assert ech.rank == sp.dim**3
            stopped.add(sp)
        elif ech.rank < sp.dim**3:
            complete.add(sp)
    assert stopped and complete
    assert set(tables) <= complete and flip in complete
    assert len(stopped & set(diagonals)) > len(diagonals) // 2


def _invertible(field, rng):
    while True:
        entry = (lambda: rng.randint(-3, 3)) if field.is_rationals else (lambda: rng.randrange(field.p))
        alpha = Mat.from_rows(field, [[entry() for _ in range(2)] for _ in range(2)])
        if alpha.rank() == 2:
            return alpha


def _rows_and_conjugates(field, rng, conjugates):
    for q in all_rows(field):
        yield q
        for _ in range(conjugates):
            yield conjugate(q, _invertible(field, rng))


def test_verify_lifted_flags_match_dense_oracle(dense_lifted_oracle):
    # each flag against the dense matrix identities, on the table rows,
    # seeded conjugates and every single-entry bump of b or of c; among the
    # bumps, each flag is the only one failing somewhere
    import random

    rng = random.Random(8)
    alone = set()
    cases = 0
    for field in (QQ, GF(5), GF(7)):
        for q in _rows_and_conjugates(field, rng, 1):
            bumped = [q]
            for i in range(2):
                for j in range(4):
                    b = [r[:] for r in q.beta.a]
                    b[i][j] += 1
                    bumped.append(QuadraticLieAlgebra(q.space, Mat.from_rows(field, b)))
            for i in range(4):
                for j in range(4):
                    c = [r[:] for r in q.space.c.a]
                    c[i][j] += 1
                    bumped.append(QuadraticLieAlgebra(BraidedSpace(field, 2, Mat.from_rows(field, c), check=False), q.beta))
            for case in bumped:
                rep = verify_lifted(case)
                assert rep == dense_lifted_oracle(case), case
                failed = [name for name, ok in rep.as_dict().items() if not ok]
                if len(failed) == 1:
                    alone.add(failed[0])
                cases += 1
            assert verify_lifted(q).ok
    assert cases == 3 * 8 * 2 * 25
    assert alone == {"antisymmetry", "bracket_left", "bracket_right", "jacobi"}


@pytest.mark.parametrize("field", [GF(5), GF(7), QQ], ids=str)
def test_verify_qbracket_matches_lifted_bracket(field):
    # the bijection b = bbar o h(c): a restricted bracket passes its axioms
    # iff its lift passes the full ones, on the genuine restriction, its
    # multiples, seeded random matrices and single-entry bumps
    import random

    rng = random.Random(f"qbracket:{field}")
    entry = (lambda: rng.randint(-2, 2)) if field.is_rationals else (lambda: rng.randrange(field.p))
    answers = []
    for q in _rows_and_conjugates(field, rng, 2):
        space = q.space
        split = split_minpoly(space)
        genuine = restrict_bracket(q, split).beta_bar
        k = genuine.cols
        candidates = [genuine, genuine.scale(field(2)), Mat.zero(field, 2, k)]
        candidates += [Mat.from_rows(field, [[entry() for _ in range(k)] for _ in range(2)]) for _ in range(4)]
        for i in range(2):
            for j in range(k):
                b = [r[:] for r in genuine.a]
                b[i][j] += 1
                candidates.append(Mat.from_rows(field, b))
        for bb in candidates:
            rb = RestrictedBracket(space, space.e2(), bb)
            got = verify_qbracket(rb).ok
            assert got == verify_lifted(lift_bracket(rb, split)).ok, (q, bb)
            answers.append(got)
    assert any(answers) and not all(answers)
