from fractions import Fraction

import pytest

from quadlie.braided import (
    BraidedSpace,
    IndexOutOfRange,
    MinusOneNotSimple,
    NotYangBaxter,
    all_words,
    diagonal_braiding,
    index_word,
    is_categorical,
    lift_to_slot,
    split_minpoly,
    vec_tensor,
    word_index,
)
from quadlie.fields import GF, QQ
from quadlie.linalg import Mat, Poly, Subspace, column_space, minimal_polynomial
from quadlie.table import default_gamma, row_instance


def flip_space(field=QQ):
    return row_instance(1, field).space


def test_word_index_convention():
    # first factor is the least significant digit
    assert [word_index(w, 2) for w in [(1, 1), (2, 1), (1, 2), (2, 2)]] == [0, 1, 2, 3]
    assert index_word(5, 2, 3) == (2, 1, 2)
    assert word_index((2, 1, 2), 2) == 5
    assert all_words(2, 2) == [(1, 1), (2, 1), (1, 2), (2, 2)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_all_words_in_word_index_order(n):
    for length in range(6):
        words = all_words(n, length)
        assert [word_index(w, n) for w in words] == list(range(n**length))
        assert all(len(w) == length and set(w) <= set(range(1, n + 1)) for w in words)


def test_slot_lift_base_cases():
    sp = flip_space()
    c1 = lift_to_slot(sp.c, 1, 3, 2, 2, 2)
    # c (x) Id in the fixed ordering: block-diagonal two copies of c
    for i in range(4):
        for j in range(4):
            assert c1.a[i][j] == sp.c.a[i][j]
            assert c1.a[i + 4][j + 4] == sp.c.a[i][j]
            assert not c1.a[i][j + 4] and not c1.a[i + 4][j]
    eye = Mat.identity(QQ, 2)
    assert lift_to_slot(eye, 2, 3, 2, 1, 1) == Mat.identity(QQ, 8)


def test_slot_lift_flip_permutation_action():
    sp = flip_space()
    c2 = sp.braiding_at(2, 3)
    # acting on x1 (x) x2 (x) x1 swaps the last two letters
    vin = [0] * 8
    vin[word_index((1, 2, 1), 2)] = 1
    out = c2.apply(tuple(vin))
    expect = [0] * 8
    expect[word_index((1, 1, 2), 2)] = 1
    assert list(out) == expect


def test_slot_lift_flip_is_word_permutation():
    # oracle: for the flip braiding every slot lift permutes letters
    sp = flip_space()
    for slot in (1, 2):
        m = sp.braiding_at(slot, 3)
        for w in all_words(2, 3):
            vin = [0] * 8
            vin[word_index(w, 2)] = 1
            out = m.apply(tuple(vin))
            ww = list(w)
            ww[slot - 1], ww[slot] = ww[slot], ww[slot - 1]
            expect = [0] * 8
            expect[word_index(tuple(ww), 2)] = 1
            assert list(out) == expect


def test_slot_lift_range_error():
    sp = flip_space()
    with pytest.raises(IndexOutOfRange):
        lift_to_slot(sp.c, 3, 3, 2, 2, 2)


def test_yang_baxter_all_rows():
    for row in range(1, 9):
        q = row_instance(row, QQ, default_gamma(row, QQ))
        assert q.space.check_yang_baxter()


def test_yang_baxter_rejects_corruption():
    # perturbing the flip by a single off-diagonal unit breaks the relation
    rows = [[1, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    c = Mat.from_rows(QQ, rows)
    with pytest.raises(NotYangBaxter):
        BraidedSpace(QQ, 2, c)
    sp = BraidedSpace(QQ, 2, c, check=False)
    assert not sp.check_yang_baxter()


def test_rescaled_corner_is_still_yang_baxter():
    # scaling c(x1 (x) x1) alone yields a diagonal-type braiding, which
    # satisfies the relation identically (any q_ij do)
    rows = [[2, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    sp = BraidedSpace(QQ, 2, Mat.from_rows(QQ, rows), check=False)
    assert sp.check_yang_baxter()


def test_e2_spans():
    sp1 = flip_space()
    assert sp1.e2().basis == ((0, 1, -1, 0),)

    q3 = row_instance(3, QQ, 1)
    assert q3.space.e2().basis == (
        (1, 0, 0, 0),
        (0, 1, -1, 0),
    )

    minus = BraidedSpace(QQ, 2, Mat.identity(QQ, 4).scale(QQ(-1)))
    assert minus.e2().dim == 4


def test_e2_spans_remaining_rows():
    # the one-dimensional primitive spans of the other canonical rows
    expect = {
        2: (1, -1, 1, 0),
        5: (1, -1, 1, 0),
        6: (0, 1, Fraction(-1, 2), 0),  # gamma x2x1 - x1x2 at gamma 2
        7: (0, 1, -1, 0),
        8: (0, 1, -1, 0),
    }
    for row, vec in expect.items():
        q = row_instance(row, QQ, default_gamma(row, QQ))
        assert q.space.e2().basis == (vec,), row


def test_e2bar_spans():
    assert flip_space().e2bar().dim == 0

    minus = BraidedSpace(QQ, 2, Mat.identity(QQ, 4).scale(QQ(-1)))
    assert minus.e2bar().dim == 8

    # rows 3 and 4 have a two-dimensional joint eigenspace: besides
    # x1 x1 x1 it contains x1x1x2 + x2x1x1 - x1x2x1 (checked by hand from
    # the matrix action; the bracket still kills it, so Jacobi holds).
    q3 = row_instance(3, QQ, 1)
    bar = q3.space.e2bar()
    assert bar.dim == 2
    x111 = [0] * 8
    x111[word_index((1, 1, 1), 2)] = 1
    assert bar.contains(tuple(x111))
    v = [0] * 8
    v[word_index((1, 1, 2), 2)] = 1
    v[word_index((2, 1, 1), 2)] = 1
    v[word_index((1, 2, 1), 2)] = -1
    assert bar.contains(tuple(v))
    # direct confirmation that v is a joint (-1)-eigenvector
    c1 = q3.space.braiding_at(1, 3)
    c2 = q3.space.braiding_at(2, 3)
    assert list(c1.apply(tuple(v))) == [-x for x in v]
    assert list(c2.apply(tuple(v))) == [-x for x in v]


def test_split_minpoly_rows():
    sp = flip_space()
    s = split_minpoly(sp)
    assert s.f == Poly(QQ, [-1, 0, 1])
    assert s.h == Poly(QQ, [-1, 1])
    assert s.h_at_minus1 == QQ(-2)

    q8 = row_instance(8, QQ, 1)
    s8 = split_minpoly(q8.space)
    assert s8.f == Poly(QQ, [1, -1, -1, 1])
    assert s8.h == Poly(QQ, [1, -2, 1])  # (X-1)^2
    assert s8.h_at_minus1 == QQ(4)


def test_split_minpoly_no_minus_one_root():
    ident = BraidedSpace(QQ, 2, Mat.identity(QQ, 4))
    assert split_minpoly(ident) is None
    assert ident.e2().dim == 0


def test_split_minpoly_repeated_root():
    # Jordan block at -1; not Yang-Baxter, so construct unchecked: the
    # minimal-polynomial split logic is independent of the braid relation.
    rows = [[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    sp = BraidedSpace(QQ, 2, Mat.from_rows(QQ, rows), check=False)
    with pytest.raises(MinusOneNotSimple):
        split_minpoly(sp)


def test_is_categorical():
    sp = flip_space()
    span_x1 = Subspace(QQ, 2, [(1, 0)])
    assert is_categorical(sp, span_x1)

    for row in range(1, 9):
        q = row_instance(row, QQ, default_gamma(row, QQ))
        assert is_categorical(q.space, column_space(q.beta))

    q4 = row_instance(4, QQ, 2)
    diag = Subspace(QQ, 2, [(1, 1)])
    assert not is_categorical(q4.space, diag)


def test_complement_split_of_minpoly_factors():
    # for every canonical row, Im(c + Id) and Im h(c) split the square,
    # and the second factor is exactly the degree-two primitive space
    from quadlie.braided import h_of_c
    from quadlie.linalg import Poly, complement_split, eval_poly_at

    for row in range(1, 9):
        q = row_instance(row, QQ, default_gamma(row, QQ))
        split = split_minpoly(q.space)
        a = eval_poly_at(Poly(QQ, [1, 1]), q.space.c)
        b = h_of_c(q.space, split)
        im_a, im_b = complement_split(a, b)
        assert im_b == q.space.e2(), row
        assert im_a.dim + im_b.dim == 4


def test_vec_tensor_order():
    u = (1, 2)
    v = (3, 5)
    w = vec_tensor(QQ, u, v)
    # index = (i-1) + 2 (j-1) for u_i v_j
    assert w == (3, 6, 5, 10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_raw_lift_matches_mat_lift(n):
    # every lift shape the package uses: c at adjacent slots, b: V(x)V -> V
    # at slots 1 and 2, and square block braidings at any slot; against the
    # Mat lift and against Id (x) op (x) Id built by mat_tensor
    import random

    from quadlie.braided import lift_columns, mat_tensor

    rng = random.Random(n)
    field = GF(7)
    checked = 0
    for total in range(1, 6 if n < 3 else 5):
        for l in range(1, total + 1):
            for m in sorted({l, 1} if l == 2 else {l}):
                op_raw = [[rng.randrange(7) if rng.random() < 0.4 else 0 for _ in range(n**l)] for _ in range(n**m)]
                op = Mat.from_rows(field, op_raw)
                for slot in range(1, total - l + 2):
                    lo = Mat.identity(field, n ** (slot - 1))
                    hi = Mat.identity(field, n ** (total - slot - l + 1))
                    lifted = mat_tensor(field, mat_tensor(field, lo, op), hi).a
                    assert lift_to_slot(op, slot, total, n, l, m).a == lifted
                    cols = lift_columns(op_raw, slot, total, n, l, m)
                    assert [sorted(col) for col in cols] == [
                        [(o, row[k]) for o, row in enumerate(lifted) if row[k]] for k in range(len(cols))
                    ]
                    checked += 1
    assert checked == {1: 45, 2: 45, 3: 26}[n]


@pytest.mark.parametrize("field", [QQ, GF(3), GF(7)], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_apply_columns_matches_dense_lift(n, field):
    # sparse images through apply_at (an operator's own columns acting at a
    # slot) against the dense lift's apply: square (2 -> 2), rectangular
    # (2 -> 1) and letter (0 -> 1) operators at every slot, Fractions over Q
    # and unreduced integers over GF(p), on the empty vector, random sparse
    # vectors and vectors whose images cancel to zero
    import random

    from quadlie.braided import apply_at, lift_columns, sparse_columns
    from quadlie.linalg import kernel

    rng = random.Random(f"apply:{n}:{field}")
    p = field.p
    if p is None:
        entry = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    else:
        entry = lambda: rng.randint(-2 * p, 2 * p)
    seen = {"vectors": 0, "cancelled": 0, "letters": 0}

    def check(a, slot, total, l, m):
        cols = sparse_columns(a)
        raw = lift_columns(a, slot, total, n, l, m)
        dense = lift_to_slot(Mat.from_rows(field, a), slot, total, n, l, m)
        width = n**total
        vecs = [{}]
        for _ in range(3):
            vecs.append({k: entry() for k in rng.sample(range(width), rng.randint(1, width))})
        for v in kernel(dense).basis:
            lift = (lambda x: x) if p is None else (lambda x: x + p * rng.randint(-2, 2))
            vecs.append({k: lift(x) for k, x in enumerate(v) if x})
        for vec in vecs:
            image = dense.apply([vec.get(k, 0) for k in range(width)])
            assert apply_at(cols, slot, n, vec, p, n**m) == {o: y for o, y in enumerate(image) if y}, (a, slot, vec)
            seen["vectors"] += 1
            if vec and not any(image) and any(raw[k] for k in vec):
                seen["cancelled"] += 1

    for total in (2, 3, 4) if n < 3 else (2, 3):
        for m in (2, 1):
            op = [[entry() if rng.random() < 0.6 else 0 for _ in range(n * n)] for _ in range(n**m)]
            if p is not None:
                # nonzero raw entries that all vanish mod p
                degenerate = [[p * rng.randint(1, 3) for _ in range(n * n)] for _ in range(n**m)]
            else:
                # a repeated row leaves a kernel in the square case too
                degenerate = [list(op[0]) for _ in range(n**m)]
            for a in (op, degenerate):
                for slot in range(1, total):
                    check(a, slot, total, 2, m)
    # the letters x_j and a random vector of V as maps from no factors to
    # one, inserted at every slot of V^(x)0 ... V^(x)3
    letters = [[[int(o == j)] for o in range(n)] for j in range(n)] + [[[entry()] for _ in range(n)]]
    for total in range(4):
        for a in letters:
            for slot in range(1, total + 2):
                check(a, slot, total, 0, 1)
                seen["letters"] += 1
    assert seen["vectors"] > 0
    assert seen["letters"] == (n + 1) * 10
    # over Q a map of one-dimensional spaces cancels nothing it does not zero
    assert seen["cancelled"] > 0 or (n, p) == (1, None)


def test_slot_actions_build_no_lifted_columns(monkeypatch):
    # the braid relation, the Nichols ranks and Jacobi act at a slot through
    # apply_at alone: with lift_columns and slot_pattern raising in every
    # module that holds them, they give the results they give without the
    # stubs
    import importlib
    import math
    import pkgutil

    import quadlie
    from quadlie.braided import braid_relation_holds
    from quadlie.brackets import jacobi_holds
    from quadlie.nichols import nichols_ranks

    def quantum_linear(field):
        # three letters, q_ii = 1, q_ij = 2 and q_ji = 1/2 for i < j
        q = [[field(1) if i == j else field(2) if i < j else field(2).inverse() for j in range(3)] for i in range(3)]
        return Mat.from_rows(field, diagonal_braiding(3, q))

    rows = [row_instance(row, field, default_gamma(row, field)) for field in (QQ, GF(5)) for row in range(1, 9)]
    braidings = [(q.space.c.a, q.field.p) for q in rows]
    braidings += [(quantum_linear(field).a, field.p) for field in (QQ, GF(13))]
    braidings += [([[x + (i == 0) for x in r] for i, r in enumerate(c)], p) for c, p in braidings[:4]]
    brackets = []
    for q in rows:
        broken = [[x + (r == 0 and k == 1) for k, x in enumerate(xs)] for r, xs in enumerate(q.beta.a)]
        for beta in (q.beta.a, broken):
            brackets.append((beta, q.space.e2bar().basis, q.field.p))

    def results():
        relation = [braid_relation_holds(c, p) for c, p in braidings]
        ranks = [nichols_ranks(BraidedSpace(field, 3, quantum_linear(field)), 5) for field in (QQ, GF(13))]
        jacobi = [jacobi_holds(beta, e2bar, 2, p, sign) for beta, e2bar, p in brackets for sign in (-1, 1)]
        return relation, ranks, jacobi

    expected = results()
    assert expected[1] == [[math.comb(d + 2, 2) for d in range(6)]] * 2
    assert {True, False} <= set(expected[0]) and {True, False} <= set(expected[2])

    def stub(*args, **kwargs):
        raise AssertionError("a slot action built lifted columns")

    holders = []
    for info in pkgutil.iter_modules(quadlie.__path__):
        module = importlib.import_module(f"quadlie.{info.name}")
        for name in ("lift_columns", "slot_pattern"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, stub)
                holders.append(f"{info.name}.{name}")
    assert {"braided.lift_columns", "braided.slot_pattern", "brackets.slot_pattern", "appendix.lift_columns"} <= set(holders)
    assert results() == expected


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_braid_relation_matches_dense_oracle(n, field, dense_yang_baxter_oracle):
    # diagonal-type braidings, the same with one entry bumped, and sparse
    # random ones, against the dense triple product; over GF(p) the raw
    # test also reads unreduced integers mod p
    import random
    from collections import Counter

    from quadlie.braided import braid_relation_holds

    rng = random.Random(f"yb:{n}:{field}")
    entry = (lambda: rng.randint(-2, 2)) if field.is_rationals else (lambda: rng.randrange(field.p))
    seen = Counter()
    for trial in range(30 if n < 3 else 15):
        kind = trial % 3
        if kind == 2:
            c = [[entry() if rng.random() < 0.3 else 0 for _ in range(n**2)] for _ in range(n**2)]
        else:
            c = diagonal_braiding(n, [[entry() for _ in range(n)] for _ in range(n)])
            if kind == 1:
                c[rng.randrange(n**2)][rng.randrange(n**2)] += 1
        space = BraidedSpace(field, n, Mat.from_rows(field, c), check=False)
        got = space.check_yang_baxter()
        assert got == dense_yang_baxter_oracle(space), c
        if not field.is_rationals:
            assert braid_relation_holds([[x + field.p * rng.randint(-2, 2) for x in r] for r in c], field.p) == got
        seen[got] += 1
    if n == 1:
        assert seen == {True: 30}
    else:
        assert seen[True] and seen[False], seen


def test_memo_returns_the_same_object():
    from quadlie.tensoralg import _word_coproduct, block_braiding

    sp = row_instance(2, QQ).space
    assert sp.e2bar() is sp.e2bar()
    assert block_braiding(sp, 2, 2) is block_braiding(sp, 2, 2)
    assert _word_coproduct(sp, (2, 1)) is _word_coproduct(sp, (2, 1))


def test_memo_computes_minpoly_once(monkeypatch):
    from quadlie import braided

    calls = []

    def counted(c):
        calls.append(c)
        return minimal_polynomial(c)

    monkeypatch.setattr(braided, "minimal_polynomial", counted)
    sp = row_instance(2, QQ).space
    assert sp.minpoly() is sp.minpoly()
    assert len(calls) == 1


def test_memo_is_per_space():
    from quadlie.tensoralg import block_braiding

    c = row_instance(2, QQ).space.c
    one, two = BraidedSpace(QQ, 2, c), BraidedSpace(QQ, 2, c)
    for get in (BraidedSpace.e2bar, BraidedSpace.minpoly, lambda sp: block_braiding(sp, 2, 2)):
        assert get(one) == get(two)
        assert get(one) is not get(two)


def test_space_with_a_filled_memo_pickles():
    import pickle

    from quadlie.appendix import _split_or_none
    from quadlie.brackets import axiom_check
    from quadlie.linalg import integral
    from quadlie.tensoralg import block_braiding

    q = row_instance(2, QQ)
    sp = q.space
    mat = block_braiding(sp, 2, 1)
    # the bracket axiom check fills the linear echelon and the integral
    # joint eigenspace; the sweep's split is memoised data too
    flat = integral(x for row in q.beta.a for x in row)[0]
    beta = [flat[:4], flat[4:]]
    assert axiom_check(sp)(beta)
    split = _split_or_none(sp)
    assert split is not None
    filled = {"quadlie.brackets._linear_echelon", "quadlie.brackets._e2bar_integral", "quadlie.appendix._split_or_none"}
    assert filled <= {name for name, _ in sp._memo}
    copy = pickle.loads(pickle.dumps(sp))
    assert block_braiding(copy, 2, 1) == mat
    assert copy.e2bar() == sp.e2bar()
    assert filled <= {name for name, _ in copy._memo}
    assert copy._memo[("quadlie.brackets._linear_echelon", ())].rows == sp._memo[("quadlie.brackets._linear_echelon", ())].rows
    assert axiom_check(copy)(beta)
    assert _split_or_none(copy) == split


def test_memo_keeps_no_error():
    from quadlie.tensoralg import block_braiding

    sp = flip_space()
    for _ in range(2):
        with pytest.raises(ValueError, match="negative block sizes"):
            block_braiding(sp, -1, 1)
