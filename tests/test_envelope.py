import random

import pytest

from quadlie import envelope
from quadlie.braided import BraidedSpace, all_words, diagonal_braiding, h_of_c, split_minpoly
from quadlie.brackets import QuadraticLieAlgebra, RestrictedBracket, lift_bracket
from quadlie.classify import conjugate
from quadlie.envelope import (
    EliminationOrder,
    Presentation,
    bg_conditions,
    coproduct_descends,
    filtration_dims,
    ideal_truncation,
    pbw_check,
    presentation_for,
    relation_span_equal,
    sq_graded_dims,
    sq_presentation,
    uq_relations,
)
from quadlie.fields import GF, QQ
from quadlie.linalg import Mat
from quadlie.table import default_gamma, expected_relations, row_instance
from quadlie.tensoralg import TensorElem, tensor_elem_from_vector


def test_uq_relations_row1():
    q = row_instance(1, QQ)
    pres = uq_relations(q, split_minpoly(q.space))
    assert relation_span_equal(pres, expected_relations(1, QQ))
    assert len(pres.relations) == 1


def test_uq_relations_row4():
    q = row_instance(4, QQ, 1)
    pres = uq_relations(q, split_minpoly(q.space))
    assert relation_span_equal(pres, expected_relations(4, QQ, 1))
    assert len(pres.relations) == 2


def test_uq_relations_all_rows_match_table():
    for row in range(1, 9):
        g = default_gamma(row, QQ)
        q = row_instance(row, QQ, g)
        pres = uq_relations(q, split_minpoly(q.space))
        assert relation_span_equal(pres, expected_relations(row, QQ, g)), row


def test_zero_bracket_gives_primitive_span():
    q = row_instance(1, QQ)
    zero = QuadraticLieAlgebra(q.space, Mat.zero(QQ, 2, 4))
    pres = uq_relations(zero, split_minpoly(q.space))
    sq = sq_presentation(q.space)
    assert pres.relations == sq.relations


def test_ideal_truncation_row1():
    q = row_instance(1, QQ)
    pres = uq_relations(q, split_minpoly(q.space))
    trunc = ideal_truncation(pres, 3, 2)
    assert trunc.slice_dims == [0, 0, 1, 5]
    # dim of the filtered quotient at degree 3: 15 - 5 = 10 = 1+2+3+4
    assert sum(2**k for k in range(4)) - trunc.dim_slice(3) == 10


def test_ideal_truncation_zero_relations():
    sp = BraidedSpace(QQ, 2, Mat.identity(QQ, 4))
    pres = Presentation(sp, [])
    trunc = ideal_truncation(pres, 4, 2)
    assert trunc.slice_dims == [0] * 5


def test_sq_row3_graded_dims_via_truncation():
    q = row_instance(3, QQ, 1)
    pres = sq_presentation(q.space)
    dims = filtration_dims(pres, 4)
    assert dims == [1, 2, 2, 2, 2]


def test_filtration_dims_row1_polynomial_oracle():
    q = row_instance(1, QQ)
    pres = uq_relations(q, split_minpoly(q.space))
    # the flip enveloping algebra grows like commutative polynomials in 2 vars
    assert filtration_dims(pres, 6) == [k + 1 for k in range(7)]


def test_filtration_dims_row3_uq():
    q = row_instance(3, QQ, 1)
    pres = uq_relations(q, split_minpoly(q.space))
    assert filtration_dims(pres, 5) == [1, 2, 2, 2, 2, 2]


def test_filtration_dims_free_algebra():
    sp = BraidedSpace(QQ, 2, Mat.identity(QQ, 4))
    pres = Presentation(sp, [])
    assert filtration_dims(pres, 3) == [1, 2, 4, 8]


def test_sq_graded_dims():
    q1 = row_instance(1, QQ)
    assert sq_graded_dims(q1.space, 6) == [k + 1 for k in range(7)]
    q4 = row_instance(4, QQ, 1)
    assert sq_graded_dims(q4.space, 4) == [1, 2, 2, 2, 2]
    ident = BraidedSpace(QQ, 2, Mat.identity(QQ, 4))
    assert sq_graded_dims(ident, 3) == [1, 2, 4, 8]


def test_bg_conditions_table_rows():
    for row in range(1, 9):
        g = default_gamma(row, QQ)
        q = row_instance(row, QQ, g)
        pres = uq_relations(q, split_minpoly(q.space))
        assert bg_conditions(pres) == {"I": True, "J": True}, row


def test_bg_condition_i_fails_on_low_degree_junk():
    sp = row_instance(1, QQ).space
    junk = Presentation(sp, [TensorElem(sp, {(1,): QQ(1), (): QQ(-1)})])
    assert not bg_conditions(junk)["I"]


def test_bg_condition_j_computed_on_inhomogeneous_pair():
    sp = row_instance(1, QQ).space
    pres = Presentation(sp, [TensorElem(sp, {(1, 1): QQ(1), (2,): QQ(-1)})])
    bg = bg_conditions(pres)
    assert bg["I"] is True
    assert isinstance(bg["J"], bool)


def test_pbw_check_rows():
    for row, g, n in [(1, None, 6), (8, 1, 5)]:
        q = row_instance(row, QQ, g)
        pres = uq_relations(q, split_minpoly(q.space))
        assert pbw_check(pres, n), row


def test_pbw_full_gamma_sweep():
    from quadlie.table import GAMMA_RULES, gamma_allowed

    for row in range(1, 9):
        gammas = (
            [None]
            if GAMMA_RULES[row] is None
            else [g for g in (0, 1, 2) if gamma_allowed(row, QQ, g)]
        )
        for g in gammas:
            q = row_instance(row, QQ, g)
            pres = uq_relations(q, split_minpoly(q.space))
            assert pbw_check(pres, 4), (row, g)


def test_pbw_over_prime_field():
    for row, g in [(1, None), (3, 3), (8, 3)]:
        q = row_instance(row, GF(7), g)
        pres = uq_relations(q, split_minpoly(q.space))
        assert pbw_check(pres, 4), row


def _corrupted_row3():
    """Formally lift a braiding-incompatible restricted bracket on row 3."""
    q = row_instance(3, QQ, 1)
    split = split_minpoly(q.space)
    e2 = q.space.e2()
    bb = Mat.from_rows(QQ, [[0, -1], [1, 0]])  # e1 -> x2 corrupts Jacobi
    bad = lift_bracket(RestrictedBracket(q.space, e2, bb), split)
    return q.space, split, bad


def test_pbw_fails_for_jacobi_violation():
    from quadlie.brackets import verify_lifted

    space, split, bad = _corrupted_row3()
    rep = verify_lifted(bad)
    assert rep.antisym and not rep.ok
    pres = uq_relations(bad, split)
    fil = filtration_dims(pres, 4)
    sq = sq_graded_dims(space, 4)
    assert fil != sq
    assert not pbw_check(pres, 4)
    # the filtration can only undershoot the graded dimensions
    assert all(f <= s for f, s in zip(fil, sq))


def test_generators_stay_injective_in_quotient():
    # the ideal meets degree <= 1 trivially for every verified table row
    for row in range(1, 9):
        g = default_gamma(row, QQ)
        q = row_instance(row, QQ, g)
        pres = uq_relations(q, split_minpoly(q.space))
        trunc = ideal_truncation(pres, 2, 2)
        assert trunc.dim_slice(0) == 0
        assert trunc.dim_slice(1) == 0


def test_substitution_relation_quotient():
    # x1^2 - x2 rewrites everything into powers of x1: the quotient grows
    # like a polynomial ring in one variable whose generator has weight 1
    sp = row_instance(1, QQ).space
    pres = Presentation(sp, [TensorElem(sp, {(1, 1): QQ(1), (2,): QQ(-1)})])
    for buf in (1, 2):
        trunc = ideal_truncation(pres, 4, buf)
        assert trunc.buffer_used == buf
        assert filtration_dims(pres, 4, trunc=trunc) == [1, 2, 2, 2, 2]


def test_filtration_never_exceeds_sq():
    for row in range(1, 9):
        g = default_gamma(row, QQ)
        q = row_instance(row, QQ, g)
        pres = uq_relations(q, split_minpoly(q.space))
        fil = filtration_dims(pres, 4)
        sq = sq_graded_dims(q.space, 4)
        assert all(f <= s for f, s in zip(fil, sq)), row


def test_quotient_relations_hold():
    # reducing h(c)(z) modulo the ideal equals reducing b(z)
    for row in (1, 4, 8):
        g = default_gamma(row, QQ)
        q = row_instance(row, QQ, g)
        split = split_minpoly(q.space)
        pres = uq_relations(q, split)
        trunc = ideal_truncation(pres, 3, 2)
        hc = h_of_c(q.space, split)
        from quadlie.tensoralg import tensor_elem_from_vector

        for j in range(4):
            lhs = trunc.nf(tensor_elem_from_vector(q.space, hc.col(j), 2))
            rhs = trunc.nf(tensor_elem_from_vector(q.space, q.beta.col(j), 1))
            assert lhs == rhs, (row, j)


def test_coproduct_descends_to_quotient():
    for row in (1, 3, 8):
        g = default_gamma(row, QQ)
        q = row_instance(row, QQ, g)
        pres = uq_relations(q, split_minpoly(q.space))
        trunc = ideal_truncation(pres, 4, 2)
        assert coproduct_descends(trunc)


def test_presentation_for_free_case():
    ident = BraidedSpace(QQ, 2, Mat.identity(QQ, 4))
    q = QuadraticLieAlgebra(ident, Mat.zero(QQ, 2, 4))
    pres = presentation_for(q, split_minpoly(ident))
    assert pres.relations == ()
    assert filtration_dims(pres, 3) == [1, 2, 4, 8]


def test_slice_dims_match_intersection_formula():
    # independent route: dim(I cap W) = dim I - dim(I + W) + dim W for the
    # coordinate subspace W of words of degree <= k
    import copy

    cases = []
    q1 = row_instance(1, QQ)
    cases.append(uq_relations(q1, split_minpoly(q1.space)))
    space3, split3, bad3 = _corrupted_row3()
    cases.append(uq_relations(bad3, split3))
    for pres in cases:
        trunc = ideal_truncation(pres, 4, 2)
        full_rank = trunc.echelon.rank
        for k in range(5):
            ech = copy.deepcopy(trunc.echelon)
            w_dim = 0
            for coord in range(trunc.order.size):
                if trunc.order.degree_of(coord) <= k:
                    w_dim += 1
                    ech.insert({coord: 1})
            union_rank = ech.rank
            assert trunc.dim_slice(k) == full_rank - union_rank + w_dim
        # basis rows of a slice stay inside the slice
        for row in trunc.slice_basis(3):
            assert row.top_degree() <= 3


def test_normal_form_idempotent():
    q = row_instance(1, QQ)
    pres = uq_relations(q, split_minpoly(q.space))
    trunc = ideal_truncation(pres, 4, 2)
    elem = TensorElem(q.space, {(2, 1): QQ(1), (1, 2, 1): QQ(3), (): QQ(1)})
    nf = trunc.nf(elem)
    assert trunc.nf(nf) == nf
    # the defect elem - nf(elem) reduces to zero (it lies in the ideal)
    assert trunc.nf(elem - nf).is_zero()


def test_gf_field_envelope():
    q = row_instance(1, GF(3))
    pres = uq_relations(q, split_minpoly(q.space))
    assert filtration_dims(pres, 4) == [1, 2, 3, 4, 5]


def _oracle_relations(oracle, q, split):
    """uq_relations through the Scalar oracle echelon."""
    space = q.space
    hc = h_of_c(space, split)
    order = EliminationOrder(space.dim, 2)
    ech = oracle(space.field)
    for j in range(space.dim**2):
        gen = tensor_elem_from_vector(space, hc.col(j), 2) - tensor_elem_from_vector(space, q.beta.col(j), 1)
        ech.insert({k: space.field(x) for k, x in order.to_coords(gen).items()})
    return tuple(order.to_elem(space, ech.rows[p]) for p in sorted(ech.rows))


def _oracle_sandwich_span(oracle, pres, trunc):
    """Every sandwich u r v that ideal_truncation inserted on its
    stabilization path (at the default buffer 2), built as a TensorElem
    product and put into the Scalar oracle echelon.  A graded ideal stops
    at degree max(N, 3) when N + 2 reaches it."""
    space = pres.space
    n = space.dim
    N = trunc.degree_cap
    if pres.is_homogeneous_quadratic():
        top = min(max(N, 3), N + 2)
    else:
        top = N + trunc.buffer_used + 1
    ech = oracle(space.field)
    for d in range(top + 1):
        for r in pres.relations:
            pad = d - r.top_degree()
            for a in range(pad + 1):
                for u in all_words(n, a):
                    for v in all_words(n, pad - a):
                        elem = TensorElem.word(space, u) * r * TensorElem.word(space, v)
                        ech.insert({k: space.field(x) for k, x in trunc.order.to_coords(elem).items()})
    return ech


def _assert_rows_match_oracle(trunc, oracle, low_only):
    """The echelon rows (only those with pivot degree <= N if low_only),
    the slice dimensions and the normal forms of the words of length <= N
    equal the oracle's."""
    space, order, N = trunc.space, trunc.order, trunc.degree_cap
    expected = oracle.rows
    got = set(trunc.echelon.rows)
    if low_only:
        expected = {p: row for p, row in expected.items() if order.degree_of(p) <= N}
        got = {p for p in got if order.degree_of(p) <= N}
    assert got == set(expected)
    for p, row in expected.items():
        assert trunc.echelon.row(p) == {k: x.v for k, x in row.items()}
    degrees = [order.degree_of(p) for p in expected]
    assert trunc.slice_dims == [sum(d <= k for d in degrees) for k in range(N + 1)]
    for length in range(N + 1):
        for w in all_words(space.dim, length):
            expect = order.to_elem(space, oracle.reduce({order.coord(w): space.field.one}))
            assert trunc.nf_word(w) == expect, w


def _sandwich_path(pres, N, monkeypatch, buffer=2):
    """ideal_truncation with the overlap certificate forced off."""
    with monkeypatch.context() as m:
        m.setattr(envelope, "_overlaps_resolve", lambda *args: False)
        return ideal_truncation(pres, N, buffer)


def _assert_truncation_matches_oracle(scalar_echelon, monkeypatch, pres, N):
    """With the certificate forced off, ideal_truncation inserts every
    sandwich up to its stabilized buffer, and all its rows equal the
    oracle's span of those sandwiches.  As it comes, it reports the same
    buffer, and on the certified path, which never builds the buffer
    degrees, the rows with pivot degree <= N equal the oracle's.  Returns
    whether that path was certified."""
    forced = _sandwich_path(pres, N, monkeypatch)
    assert not forced.overlaps_resolved
    oracle = _oracle_sandwich_span(scalar_echelon, pres, forced)
    _assert_rows_match_oracle(forced, oracle, low_only=False)
    trunc = ideal_truncation(pres, N)
    assert trunc.buffer_used == forced.buffer_used
    _assert_rows_match_oracle(trunc, oracle, low_only=trunc.overlaps_resolved)
    return trunc.overlaps_resolved


def _random_integer_basis_change(rng, field):
    """An invertible 2x2 integer matrix with entries in [-3, 3], so that
    conjugates over Q have denominators."""
    while True:
        a = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        det = field(a[0][0] * a[1][1] - a[0][1] * a[1][0])
        if det and (a[0][1] or a[1][0]):
            return Mat.from_rows(field, a)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_ideal_truncation_matches_scalar_oracle(field, scalar_echelon, monkeypatch):
    rng = random.Random(f"truncation:{field!r}")
    certified = set()
    for row in range(1, 9):
        canon = row_instance(row, field, default_gamma(row, field))
        for q in (canon, conjugate(canon, _random_integer_basis_change(rng, field))):
            split = split_minpoly(q.space)
            pres = uq_relations(q, split)
            assert pres.relations == _oracle_relations(scalar_echelon, q, split), row
            for N in range(5 if q is canon else 4):
                certified.add(_assert_truncation_matches_oracle(scalar_echelon, monkeypatch, pres, N))
    # the homogeneous case stops at max(N, 3)
    sq = sq_presentation(row_instance(2, field).space)
    certified.add(_assert_truncation_matches_oracle(scalar_echelon, monkeypatch, sq, 4))
    assert certified == {True, False}


#: Diagonal braidings on three letters: the quantum linear space with
#: q_ii = -1, the flip, and Cartan type A2 at q = -1 times A1.
DIAGONAL_N3 = {
    "quantum linear space": [[-1, 1, 1], [1, -1, 1], [1, 1, -1]],
    "flip": [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
    "A2 x A1": [[-1, -1, 1], [1, -1, 1], [1, 1, -1]],
}


def _assert_certified_matches_sandwiches(pres, N, monkeypatch, buffer=2, trunc=None):
    """ideal_truncation as it comes (or trunc) against the same with the
    certificate forced off; returns whether the first was certified."""
    if trunc is None:
        trunc = ideal_truncation(pres, N, buffer)
    forced = _sandwich_path(pres, N, monkeypatch, buffer)
    order = trunc.order

    def low_rows(t):
        return {p: t.echelon.row(p) for p in t.echelon.rows if order.degree_of(p) <= N}

    assert trunc.slice_dims == forced.slice_dims
    assert trunc.buffer_used == forced.buffer_used
    assert low_rows(trunc) == low_rows(forced)
    assert trunc.quotient_words(N) == forced.quotient_words(N)
    for length in range(N + 1):
        for w in all_words(pres.space.dim, length):
            assert trunc.nf_word(w) == forced.nf_word(w), w
    return trunc.overlaps_resolved


def test_certified_truncation_matches_sandwich_path(monkeypatch):
    rng = random.Random("certified truncation")
    cases = []
    for field in (QQ, GF(3), GF(5), GF(7)):
        for row in range(1, 9):
            canon = row_instance(row, field, default_gamma(row, field))
            conj = conjugate(canon, _random_integer_basis_change(rng, field))
            cases.append((f"{field!r} row {row}", uq_relations(canon, split_minpoly(canon.space))))
            cases.append((f"{field!r} row {row} conjugate", uq_relations(conj, split_minpoly(conj.space))))
            cases.append((f"{field!r} row {row} sq", sq_presentation(conj.space)))
    # the row-2 conjugate by [[-1, -1], [1, 0]] (a bench basis change)
    # does not resolve its overlaps
    fallback = conjugate(row_instance(2, QQ), Mat.from_rows(QQ, [[-1, -1], [1, 0]]))
    cases.append(("Q row 2 fallback", uq_relations(fallback, split_minpoly(fallback.space))))
    # two presentations whose overlaps leak relations into lower degrees:
    # x1 x1 - x2, and the lift of a bracket that fails Jacobi
    sp = row_instance(1, QQ).space
    cases.append(("x1 x1 - x2", Presentation(sp, [TensorElem(sp, {(1, 1): QQ(1), (2,): QQ(-1)})])))
    _, split, bad = _corrupted_row3()
    cases.append(("Jacobi violation", uq_relations(bad, split)))
    for name, q in DIAGONAL_N3.items():
        cases.append((name, sq_presentation(BraidedSpace(QQ, 3, Mat.from_rows(QQ, diagonal_braiding(3, q))))))
    # U(sl2) on the flip: [x1, x2] = x3, [x3, x1] = 2 x1, [x3, x2] = -2 x2
    flip = BraidedSpace(QQ, 3, Mat.from_rows(QQ, diagonal_braiding(3, DIAGONAL_N3["flip"])))
    beta = [[0] * 9 for _ in range(3)]
    for i, j, k, coeff in ((1, 2, 3, 1), (3, 1, 1, 2), (3, 2, 2, -2)):
        beta[k - 1][i - 1 + 3 * (j - 1)] += coeff
        beta[k - 1][j - 1 + 3 * (i - 1)] -= coeff
    sl2 = QuadraticLieAlgebra(flip, Mat.from_rows(QQ, beta))
    cases.append(("U(sl2)", uq_relations(sl2, split_minpoly(flip))))
    certified = {}
    for name, pres in cases:
        for N in range(5):
            certified[name, N] = _assert_certified_matches_sandwiches(pres, N, monkeypatch)
    # positive control: both paths run
    assert not certified["Q row 2 fallback", 4]
    assert not certified["x1 x1 - x2", 4]
    assert all(certified[name, 4] for name in ("Q row 1", *DIAGONAL_N3, "U(sl2)"))


#: The 36 basis changes of the benchmark's conjugates (bench/workloads.py):
#: integer 2x2 matrices with entries in {-1, 0, 1}, determinant +-1, not
#: diagonal.
ALPHAS = [
    [[a, b], [c, d]]
    for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1) for d in (-1, 0, 1)
    if a * d - b * c in (1, -1) and (b or c)
]


def _recorded_overlaps(monkeypatch):
    """Wrap _overlaps_resolve so that each call appends its result to the
    returned list."""
    results = []
    inner = envelope._overlaps_resolve

    def recorded(*args):
        results.append(inner(*args))
        return results[-1]

    monkeypatch.setattr(envelope, "_overlaps_resolve", recorded)
    return results


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=repr)
def test_reversed_certificate_matches_sandwich_path(field, monkeypatch):
    # rows 2, 5 and 6, canonical and under the 36 basis changes: where the
    # certificate holds only in the reversed letter order, the truncation
    # equals the sandwich path's (elsewhere it takes the path it took
    # before the reversed order was tried)
    results = _recorded_overlaps(monkeypatch)
    certified, reversed_only = {}, {}
    for row in (2, 5, 6):
        canon = row_instance(row, field, default_gamma(row, field))
        for k, alpha in enumerate([None, *ALPHAS]):
            q = canon if alpha is None else conjugate(canon, Mat.from_rows(field, alpha))
            pres = uq_relations(q, split_minpoly(q.space))
            for N in range(5):
                results.clear()
                trunc = ideal_truncation(pres, N)
                certified[row, k, N] = trunc.overlaps_resolved
                reversed_only[row, k, N] = results == [False, True]
                if reversed_only[row, k, N]:
                    _assert_certified_matches_sandwiches(pres, N, monkeypatch, trunc=trunc)
    # from N = 1 on, N + buffer reaches degree 3, and the certificate does
    # not depend on N
    for N in range(1, 5):
        assert all(certified[row, 0, N] for row in (2, 5, 6))
        assert [sum(certified[row, k, N] for k in range(1, 37)) for row in (2, 5, 6)] == [20, 20, 36]
        assert [sum(reversed_only[row, k, N] for k in range(37)) for row in (2, 5, 6)] == [9, 9, 16]
    assert not any(certified[row, k, 0] for row in (2, 5, 6) for k in range(37))


@pytest.mark.parametrize("row", [2, 5])
def test_reversed_certificate_at_higher_degrees(row, monkeypatch):
    # the canonical rows 2 and 5 at N = 5 and 6 against the sandwich path,
    # which builds degrees up to N + buffer + 1; at N = 5 at the buffers 2,
    # 3 and 4 (degree 10)
    q = row_instance(row, QQ, default_gamma(row, QQ))
    pres = uq_relations(q, split_minpoly(q.space))
    for N, buffer in ((5, 2), (5, 3), (5, 4), (6, 2)):
        assert _assert_certified_matches_sandwiches(pres, N, monkeypatch, buffer)


def test_reversed_certificate_controls(monkeypatch):
    results = _recorded_overlaps(monkeypatch)
    # positive control: on canonical row 2 the standard order fails and the
    # reversed order certifies the truncation
    q = row_instance(2, QQ, default_gamma(2, QQ))
    assert ideal_truncation(uq_relations(q, split_minpoly(q.space)), 4).overlaps_resolved
    assert results == [False, True]
    # negative controls: the row-2 conjugate whose top form holds both
    # squares, and a relation that leaks into degree 1, fail in both orders
    fallback = conjugate(q, Mat.from_rows(QQ, [[-1, -1], [1, 0]]))
    sp = q.space
    for pres in (
        uq_relations(fallback, split_minpoly(fallback.space)),
        Presentation(sp, [TensorElem(sp, {(1, 1): QQ(1), (2,): QQ(-1)})]),
    ):
        results.clear()
        assert not ideal_truncation(pres, 4).overlaps_resolved
        assert results == [False, False]
    # a graded presentation is exact without the certificate: one call,
    # whatever it returns
    for row in range(1, 9):
        results.clear()
        ideal_truncation(sq_presentation(row_instance(row, QQ, default_gamma(row, QQ)).space), 4)
        assert len(results) == 1, row


def _buffer_path(pres, N, monkeypatch):
    """ideal_truncation with the overlap certificate and the graded stop
    forced off: it builds every degree up to N + buffer and one more, on
    an order of the words of length <= N + buffer + 2."""
    with monkeypatch.context() as m:
        m.setattr(envelope, "_overlaps_resolve", lambda *args: False)
        m.setattr(Presentation, "is_homogeneous_quadratic", lambda self: False)
        m.setattr(envelope, "MAX_WORDS", 3**10)  # n = 3 at N = 5
        return ideal_truncation(pres, N)


def _low_rows_as_words(trunc):
    """The echelon rows of pivot degree <= N, with words for coordinates
    (the coordinates depend on the order's cap)."""
    order, ech = trunc.order, trunc.echelon
    return {
        order.word(p): {order.word(k): x for k, x in ech.row(p).items()}
        for p in ech.rows
        if order.degree_of(p) <= trunc.degree_cap
    }


def test_graded_truncation_matches_buffer_path(monkeypatch):
    # a graded ideal stops at degree max(N, 3), on an order built only that
    # far, with the slices, rows, quotient words and normal forms of the
    # path that builds the buffer degrees
    rng = random.Random("graded truncation")
    spaces = []
    for field in (QQ, GF(5)):
        for row in range(1, 9):
            canon = row_instance(row, field, default_gamma(row, field))
            spaces += [canon.space, conjugate(canon, _random_integer_basis_change(rng, field)).space]
    spaces += [BraidedSpace(QQ, 3, Mat.from_rows(QQ, diagonal_braiding(3, q))) for q in DIAGONAL_N3.values()]
    for space in spaces:
        pres = sq_presentation(space)
        for N in range(6):
            trunc = ideal_truncation(pres, N)
            full = _buffer_path(pres, N, monkeypatch)
            assert trunc.order.cap == max(N, 3) and full.order.cap == N + 4
            assert trunc.slice_dims == full.slice_dims
            assert trunc.buffer_used == full.buffer_used == 2
            assert _low_rows_as_words(trunc) == _low_rows_as_words(full)
            assert trunc.quotient_words(N) == full.quotient_words(N)
            # normal forms agree on every degree that both paths build
            for length in range(min(max(N, 3), N + 2) + 1):
                for w in all_words(space.dim, length):
                    assert trunc.nf_word(w) == full.nf_word(w), w
            assert sq_graded_dims(space, N) == filtration_dims(pres, N, trunc=full)


def test_bg_conditions_from_the_relation_echelon():
    # J fails on <x1 x1 - x2>: x1 r - r x1 = x2 x1 - x1 x2 is new in degree 2
    sp = row_instance(1, QQ).space
    pres = Presentation(sp, [TensorElem(sp, {(1, 1): QQ(1), (2,): QQ(-1)})])
    assert bg_conditions(pres) == {"I": True, "J": False}
    # and I fails on a relation of degree 1 next to a quadratic one
    pres = Presentation(sp, [TensorElem(sp, {(1, 2): QQ(1), (2, 1): QQ(-1)}), TensorElem(sp, {(2,): QQ(1)})])
    assert bg_conditions(pres)["I"] is False
    for field in (QQ, GF(5)):
        for row in range(1, 9):
            q = row_instance(row, field, default_gamma(row, field))
            for pres in (uq_relations(q, split_minpoly(q.space)), sq_presentation(q.space)):
                assert bg_conditions(pres) == {"I": True, "J": True}, (field, row)
