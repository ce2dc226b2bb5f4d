"""Acceptance suite: one test per criterion, one printed line per criterion.

Run as `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines
inline.  Every assertion is exact (field equality of scalars, matrices,
subspaces, dimensions); the stated wall-clock budgets are asserted too.
"""

import random
import time
from contextlib import contextmanager

from quadlie.appendix import case_families, random_survey, udu_check, udu_identity_holds
from quadlie.braided import all_words, split_minpoly, word_index
from quadlie.brackets import (
    check_dim1_rigidity,
    lift_bracket,
    random_verified_brackets,
    restrict_bracket,
    verify_lifted,
)
from quadlie.classify import canonical_form, conjugate, iso_bruteforce
from quadlie.envelope import (
    bg_conditions,
    filtration_dims,
    ideal_truncation,
    sq_graded_dims,
    sq_presentation,
    uq_relations,
)
from quadlie.fields import GF, QQ
from quadlie.linalg import Mat, Subspace
from quadlie.nichols import (
    primitives_of_quotient,
    symmetrizer_rank,
    unipotent_coproduct_coeffs,
    verify_cx2_and_alpha,
)
from quadlie.table import (
    GAMMA_RULES,
    default_gamma,
    expected_minpoly,
    expected_relations,
    gamma_allowed,
    row_instance,
)
from quadlie.tensoralg import (
    SplitTensorElem,
    TensorElem,
    braided_mul_split,
    coproduct,
    en_space,
)


@contextmanager
def criterion(num, desc, budget=None):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL ({time.time() - t0:.2f}s) {desc}")
        raise
    elapsed = time.time() - t0
    within = budget is None or elapsed < budget
    print(f"ACCEPTANCE {num:02d} {'PASS' if within else 'FAIL'} ({elapsed:.2f}s) {desc}")
    assert within, f"exceeded time budget: {elapsed:.2f}s >= {budget}s"


def permitted_gammas(row):
    if GAMMA_RULES[row] is None:
        return [None]
    return [g for g in (0, 1, 2) if gamma_allowed(row, QQ, g)]


def test_criterion_01_table_reproduction():
    with criterion(1, "table rows: axioms, minimal polynomials, relation spans", None):
        for row in range(1, 9):
            for g in permitted_gammas(row):
                t0 = time.time()
                q = row_instance(row, QQ, g)
                rep = verify_lifted(q)
                assert rep.antisym and rep.bracket_left and rep.bracket_right and rep.jacobi
                split = split_minpoly(q.space)
                assert split.f == expected_minpoly(row, QQ, g)
                pres = uq_relations(q, split)
                trunc = ideal_truncation(pres, 2, 2)
                slice_rows = trunc.slice_basis(2)
                from quadlie.envelope import Presentation

                expect = Presentation(q.space, [TensorElem(q.space, d) for d in expected_relations(row, QQ, g)])
                assert tuple(slice_rows) == expect.relations, (row, g)
                assert time.time() - t0 < 1.0, f"row {row} gamma {g} too slow"


def _vec(space, vec_dict, length):
    v = [0] * space.dim**length
    for w, c in vec_dict.items():
        v[word_index(w, space.dim)] = c
    return tuple(v)


def _span(space, vec_dicts, length):
    return Subspace(QQ, space.dim**length, [_vec(space, d, length) for d in vec_dicts])


def test_criterion_02_primitive_spans():
    with criterion(
        2,
        "degree-2/3 primitive spans match the stated ones "
        "(row-3 triple span K x1x1x1 + K(x1x1x2 + x2x1x1 - x1x2x1), every gamma)",
        1.0,
    ):
        # row 1: E2 = K(x2 x1 - x1 x2), trivial triple space
        q1 = row_instance(1, QQ)
        assert q1.space.e2() == _span(q1.space, [{(2, 1): 1, (1, 2): -1}], 2)
        assert q1.space.e2bar().dim == 0
        # row 3 (any admissible gamma): E2 = K x1x1 + K(x2 x1 - x1 x2).
        # The triple space (E2 (x) V) cap (V (x) E2) holds x1x1x1 and also
        #   v = x1x1x2 + x2x1x1 - x1x2x1
        #     = x1x1 (x) x2 + (x2x1 - x1x2) (x) x1   in E2 (x) V
        #     = x1 (x) (x1x2 - x2x1) + x2 (x) x1x1   in V (x) E2,
        # so the stated span is K x1x1x1 + K v, the same for every gamma.
        triple = [{(1, 1, 1): 1}, {(1, 1, 2): 1, (2, 1, 1): 1, (1, 2, 1): -1}]
        for g in (0, 1, 2):
            q3 = row_instance(3, QQ, g)
            assert q3.space.e2() == _span(q3.space, [{(1, 1): 1}, {(2, 1): 1, (1, 2): -1}], 2)
            for d in triple:
                vec = _vec(q3.space, d, 3)
                for slot in (1, 2):
                    image = q3.space.braiding_at(slot, 3).apply(vec)
                    assert image == tuple(-x for x in vec), (g, d, slot)
            assert q3.space.e2bar() == _span(q3.space, triple, 3), g
        # row 4: E2 = K(gamma x1x1 - 2 x2x2) + K(x2 x1 - x1 x2)
        for g in (0, 1, 2):
            q4 = row_instance(4, QQ, g)
            assert q4.space.e2() == _span(
                q4.space, [{(1, 1): g, (2, 2): -2}, {(2, 1): 1, (1, 2): -1}], 2
            )
        # zero triple-primitive rows
        for row in (2, 5, 6, 7, 8):
            q = row_instance(row, QQ, default_gamma(row, QQ))
            assert q.space.e2bar().dim == 0, row


def test_criterion_03_pbw_suite():
    with criterion(3, "PBW: span conditions and filtration = graded dims, n <= 6", 60.0):
        for row in range(1, 9):
            g = default_gamma(row, QQ)
            q = row_instance(row, QQ, g)
            pres = uq_relations(q, split_minpoly(q.space))
            assert bg_conditions(pres) == {"I": True, "J": True}, row
            fil = filtration_dims(pres, 6)
            sq = sq_graded_dims(q.space, 6)
            assert fil == sq, row
            if row == 1:
                assert fil == [1, 2, 3, 4, 5, 6, 7]


def test_criterion_04_primitivity():
    with criterion(4, "quotient primitives: V over Q at N=6; cube obstruction over GF(3)", 120.0):
        for row in range(1, 9):
            g = default_gamma(row, QQ)
            q = row_instance(row, QQ, g)
            rep = primitives_of_quotient(sq_presentation(q.space), 6)
            assert rep.verdict, row
            assert set(rep.levels) == {1}
        sp3 = row_instance(1, GF(3)).space
        rep3 = primitives_of_quotient(sq_presentation(sp3), 3)
        assert not rep3.verdict
        cube = TensorElem.word(sp3, (1, 1, 1))
        assert rep3.contains(cube)
        assert 3 in rep3.levels


def test_criterion_05_quadratic_nichols():
    with criterion(5, "symmetrizer ranks equal quadratic dimensions, n <= 4", 60.0):
        for row in range(1, 9):
            g = default_gamma(row, QQ)
            sp = row_instance(row, QQ, g).space
            dims = sq_graded_dims(sp, 4)
            for n in range(5):
                assert symmetrizer_rank(sp, n) == dims[n], (row, n)


def test_criterion_06_lifting_bijection():
    with criterion(6, "restricted/full bracket bijection on rows and 100 GF(5) samples", None):
        for row in range(1, 9):
            g = default_gamma(row, QQ)
            q = row_instance(row, QQ, g)
            split = split_minpoly(q.space)
            rb = restrict_bracket(q, split)
            assert lift_bracket(rb, split).beta == q.beta
            assert restrict_bracket(lift_bracket(rb, split), split).beta_bar == rb.beta_bar
        F = GF(5)
        total = 0
        seeds = 0
        spaces = []
        for row in range(1, 9):
            if GAMMA_RULES[row] is None:
                spaces.append(row_instance(row, F).space)
            else:
                for g in range(5):
                    if gamma_allowed(row, F, g):
                        spaces.append(row_instance(row, F, g).space)
        for sp in spaces:
            split = split_minpoly(sp)
            if split is None:
                continue
            seeds += 1
            for q in random_verified_brackets(sp, count=6, seed=1000 + seeds):
                rb = restrict_bracket(q, split)
                q2 = lift_bracket(rb, split)
                assert q2.beta == q.beta
                rb2 = restrict_bracket(q2, split)
                assert rb2.beta_bar == rb.beta_bar
                total += 1
        assert total >= 100, f"only {total} sampled brackets"


def test_criterion_07_classification_robustness():
    with criterion(7, "50 random basis changes per row reclassify correctly", 60.0):
        rng = random.Random(20240807)

        def rand_alpha():
            while True:
                rows = [
                    [QQ(rng.randint(-3, 3)) / QQ(rng.randint(1, 3)) for _ in range(2)]
                    for _ in range(2)
                ]
                m = Mat.from_rows(QQ, rows)
                if m.a[0][0] * m.a[1][1] - m.a[0][1] * m.a[1][0]:
                    return m

        for row in range(1, 9):
            g = default_gamma(row, QQ)
            q = row_instance(row, QQ, g)
            for _ in range(50):
                res = canonical_form(conjugate(q, rand_alpha()))
                assert res.row == row
                if row in (5, 6, 7):
                    assert res.gamma == (QQ(g) if g is not None else None)
                elif row in (3, 4, 8):
                    ratio = res.gamma / QQ(g)
                    assert ratio.is_square()


def test_criterion_08_non_isomorphism():
    with criterion(8, "exhaustive non-isomorphism of rows sharing a minimal polynomial", 5.0):
        for p in (5, 7):
            F = GF(p)
            gamma = next(g for g in range(2, p) if not F(g).is_square())
            inst = {
                1: row_instance(1, F),
                2: row_instance(2, F),
                3: row_instance(3, F, gamma),
                4: row_instance(4, F, gamma),
                5: row_instance(5, F),
                6: row_instance(6, F, gamma),
            }
            share_f = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (5, 6)]
            for a, b in share_f:
                assert iso_bruteforce(inst[a], inst[b], "finite_exhaustive") is None, (p, a, b)


def test_criterion_09_dim1_rigidity():
    with criterion(9, "every 1-dimensional verified bracket is zero over GF(3,5,7)", 1.0):
        for p in (3, 5, 7):
            assert check_dim1_rigidity(GF(p))


def test_criterion_10_appendix_suite():
    with criterion(10, "all-ones identity, empty eliminated branches, rank-2 survey", 600.0):
        assert udu_identity_holds(QQ, [1, 2, 3, 4])
        assert udu_check(QQ, 100, seed=101)
        assert udu_check(GF(5), 100, seed=102)
        reports = case_families(GF(3))
        assert len(reports) == 8
        for name, rep in reports.items():
            assert rep.candidates > 0, name
            assert rep.solutions == [], name
        survey = random_survey(GF(5), seed=11, max_brackets_per_braiding=100)
        assert survey.verified > 0
        assert survey.rank2_conclusions_hold
        assert all(inst["conclusions"] for inst in survey.rank2_instances if inst["conclusions"] is not None)


def test_criterion_11_unipotent_row_identities():
    with criterion(11, "row-8 crossing and power-coproduct identities, n <= 6", 30.0):
        assert verify_cx2_and_alpha(QQ(1), 6)
        alpha = unipotent_coproduct_coeffs(6)
        for n in range(7):
            assert alpha[(0, n)] == 1
        for t in range(1, 4):
            for n in range(2 * t):
                assert alpha.get((t, n), 0) == 0
        assert alpha[(1, 3)] == 3
        # direct cross-check of alpha_1(3) against the reduced coproduct
        gamma = QQ(1)
        q = row_instance(8, QQ, gamma)
        trunc = ideal_truncation(sq_presentation(q.space), 4, 1)
        d = trunc.nf_split(coproduct(TensorElem.word(q.space, (2, 2, 2))))
        assert QQ(d.terms.get(((1,), (1, 2)))) == QQ(3) * gamma


def test_criterion_12_bialgebra_axioms_at_truncation():
    with criterion(12, "coproduct/product/braiding compatibilities to total degree 4", 30.0):
        from quadlie.braided import mat_tensor
        from quadlie.linalg import Mat as _Mat
        from quadlie.tensoralg import block_braiding, delta_component_matrix

        for row in range(1, 9):
            sp = row_instance(row, QQ, default_gamma(row, QQ)).space
            # multiplicativity of the coproduct on all short word pairs
            for la in (1, 2, 3):
                for lb in range(1, 5 - la):
                    for u in all_words(2, la):
                        for v in all_words(2, lb):
                            lhs = coproduct(TensorElem.word(sp, u) * TensorElem.word(sp, v))
                            rhs = braided_mul_split(
                                coproduct(TensorElem.word(sp, u)),
                                coproduct(TensorElem.word(sp, v)),
                            )
                            assert lhs == rhs
            # counit components and coassociativity on components up to 4
            for deg in (1, 2, 3, 4):
                for w in all_words(2, deg):
                    full = coproduct(TensorElem.word(sp, w))
                    assert full.bidegree_part(deg, 0) == SplitTensorElem.pure(sp, w, ())
                    assert full.bidegree_part(0, deg) == SplitTensorElem.pure(sp, (), w)
            for n, m, p in [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)]:
                d_nm = delta_component_matrix(sp, n, m)
                d_mp = delta_component_matrix(sp, m, p)
                lhs = mat_tensor(QQ, d_nm, _Mat.identity(QQ, 2**p)) @ delta_component_matrix(sp, n + m, p)
                rhs = mat_tensor(QQ, _Mat.identity(QQ, 2**n), d_mp) @ delta_component_matrix(sp, n, m + p)
                assert lhs == rhs
            # connectedness of the extended braiding
            for k in (1, 2, 3):
                assert block_braiding(sp, k, 0) == _Mat.identity(QQ, 2**k)
                assert block_braiding(sp, 0, k) == _Mat.identity(QQ, 2**k)


def test_criterion_13_free_lie_sanity():
    with criterion(13, "flip braiding: degree-3 primitives match the Witt count", None):
        # necklace count: (1/3) sum_{d | 3} mu(d) 2^(3/d) = (8 - 2)/3 = 2
        mu = {1: 1, 3: -1}
        witt3 = sum(mu[d] * 2 ** (3 // d) for d in (1, 3)) // 3
        sp = row_instance(1, QQ).space
        assert en_space(sp, 3).dim == witt3 == 2
