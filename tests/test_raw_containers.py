"""Differential tests of the raw-valued containers against Scalar oracles.

``Mat``, ``Poly``, ``TensorElem`` and ``SplitTensorElem`` hold raw values
(ints or Fractions over Q, residues over GF(p)).  Every operation here is
recomputed by an oracle that wraps the entries it reads as Scalars and
computes on Scalars; the core's result is wrapped only for the comparison.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from conftest import block_word, scalar_rows

from quadlie.braided import index_word, split_minpoly, word_index
from quadlie.classify import conjugate
from quadlie.envelope import ideal_truncation, uq_relations
from quadlie.fields import GF, QQ
from quadlie.linalg import HypothesisViolated, Mat, Poly, eval_poly_at, minimal_polynomial, poly_gcd_bezout
from quadlie.table import default_gamma, row_instance
from quadlie.nichols import braid_lift
from quadlie.tensoralg import SplitTensorElem, TensorElem, braided_mul_split, coproduct

FIELDS = [QQ, GF(3), GF(7)]


def _entry(rng, field):
    """A raw value: over GF(p) any int (unreduced ones too), over Q an
    int or a Fraction."""
    if field.is_rationals:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if rng.random() < 0.5 else rng.randint(-4, 4)
    return rng.randint(-2 * field.p, 2 * field.p)


def _mat(rng, field, rows, cols, density=0.6):
    entries = [[_entry(rng, field) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    return Mat.from_rows(field, entries)


def _s_product(field, a, b):
    """The product of two Scalar matrices, every entry the sum over the inner index."""
    return [[sum((x * y for x, y in zip(row, col)), field.zero) for col in zip(*b)] for row in a]


def _s_identity(field, n):
    return [[field(int(i == j)) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_mat_arithmetic_matches_scalar_oracle(field):
    rng = random.Random(f"mat:{field!r}")
    for _ in range(40):
        r, k, c = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b, d = _mat(rng, field, r, k), _mat(rng, field, r, k), _mat(rng, field, k, c)
        sa, sb, sd = scalar_rows(a), scalar_rows(b), scalar_rows(d)
        assert scalar_rows(a + b) == [[x + y for x, y in zip(u, v)] for u, v in zip(sa, sb)]
        assert scalar_rows(a - b) == [[x - y for x, y in zip(u, v)] for u, v in zip(sa, sb)]
        assert scalar_rows(-a) == [[-x for x in u] for u in sa]
        s = _entry(rng, field)
        assert scalar_rows(a.scale(s)) == [[field(s) * x for x in u] for u in sa]
        assert a.scale(field(s)) == a.scale(s)
        vec = [_entry(rng, field) for _ in range(k)]
        want = [sum((x * field(y) for x, y in zip(u, vec)), field.zero) for u in sa]
        assert [field(x) for x in a.apply(vec)] == want
        assert scalar_rows(a @ d) == _s_product(field, sa, sd)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_mat_inverse_matches_scalar_oracle(field, dense_oracle):
    rng = random.Random(f"inverse:{field!r}")
    inverted = 0
    for _ in range(30):
        n = rng.randint(1, 4)
        m = _mat(rng, field, n, n, density=0.8)
        try:
            want = dense_oracle.inverse(m)
        except HypothesisViolated:
            with pytest.raises(HypothesisViolated):
                m.inverse()
            continue
        inv = m.inverse()
        assert inv == want
        assert _s_product(field, scalar_rows(m), scalar_rows(inv)) == _s_identity(field, n)
        inverted += 1
    assert inverted > 10


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_mat_equality_and_hash_follow_the_values(field):
    rng = random.Random(f"eq:{field!r}")
    for _ in range(30):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = _mat(rng, field, r, c)
        # the same values from Scalars, from other representatives (ints
        # plus multiples of p, Fractions of denominator 1) and by arithmetic
        if field.is_rationals:
            other = [[Fraction(x) for x in row] for row in m.a]
        else:
            other = [[x + field.p * rng.randint(-3, 3) for x in row] for row in m.a]
        same = [Mat.from_rows(field, scalar_rows(m)), Mat.from_rows(field, other), m + Mat.zero(field, r, c), -(-m)]
        for s in same:
            assert s == m and hash(s) == hash(m)
        i, j = rng.randrange(r), rng.randrange(c)
        bumped = [row[:] for row in m.a]
        bumped[i][j] += 1
        assert Mat.from_rows(field, bumped) != m
    assert Mat.identity(field, 2) != Mat.identity(GF(5), 2)


def _poly(rng, field, degree):
    return Poly(field, [_entry(rng, field) for _ in range(degree + 1)])


def _s_poly(p):
    """A Poly's coefficients as Scalars, lowest degree first."""
    return [p.field(c) for c in p.coeffs]


def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _s_add(field, a, b):
    n = max(len(a), len(b))
    return _trim(x + y for x, y in zip(a + [field.zero] * (n - len(a)), b + [field.zero] * (n - len(b))))


def _s_mul(field, a, b):
    out = [field.zero] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def _s_divmod(field, a, b):
    """Long division of Scalar coefficient lists."""
    q = [field.zero] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while r and len(r) >= len(b):
        c = r[-1] / b[-1]
        shift = len(r) - len(b)
        q[shift] = c
        for j, y in enumerate(b):
            r[shift + j] = r[shift + j] - c * y
        r = _trim(r)
    return _trim(q), r


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_poly_arithmetic_matches_scalar_oracle(field):
    rng = random.Random(f"poly:{field!r}")
    gcds = set()
    for _ in range(40):
        a = _poly(rng, field, rng.randint(0, 5))
        b = _poly(rng, field, rng.randint(0, 3))
        if rng.random() < 0.4:  # a common factor
            f = _poly(rng, field, rng.randint(1, 2))
            a, b = a * f, b * f
        sa, sb = _s_poly(a), _s_poly(b)
        assert _s_poly(a * b) == _s_mul(field, sa, sb)
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert (_s_poly(q), _s_poly(r)) == _s_divmod(field, sa, sb)
        if a.is_zero():
            continue
        # Euclid on Scalars: the last nonzero remainder, made monic
        g0, g1 = sa, sb
        while g1:
            g0, g1 = g1, _s_divmod(field, g0, g1)[1]
        g, u, v = poly_gcd_bezout(a, b)
        assert _s_poly(g) == [x / g0[-1] for x in g0]
        assert _s_add(field, _s_mul(field, _s_poly(u), sa), _s_mul(field, _s_poly(v), sb)) == _s_poly(g)
        gcds.add(g.degree)
    assert len(gcds) > 1  # some pairs have a common factor


def _s_horner(field, coeffs, m):
    n = len(m)
    acc = [[field.zero] * n for _ in range(n)]
    for c in reversed(coeffs):
        acc = _s_product(field, acc, m)
        acc = [[x + (c if i == j else field.zero) for j, x in enumerate(row)] for i, row in enumerate(acc)]
    return acc


def _s_minimal_polynomial(field, m, dense_oracle):
    """The least k with m^k a combination of lower powers, and that
    combination, by Scalar powers and the Scalar Gauss-Jordan oracle."""
    n = len(m)
    powers = [_s_identity(field, n)]
    while True:
        nxt = _s_product(field, powers[-1], m)
        cols = Mat.from_rows(field, [list(col) for col in zip(*[[x for r in p for x in r] for p in powers])])
        x = dense_oracle.solve(cols, [field.coerce(y) for r in nxt for y in r])
        if x is not None:
            return [-field(c) for c in x] + [field.one]
        powers.append(nxt)


def _square_mats(rng, field):
    yield Mat.identity(field, 3)
    yield Mat.zero(field, 2, 2)
    for row in (1, 3, 5, 8):
        yield row_instance(row, field, default_gamma(row, field)).space.c
    for n in (2, 3, 3, 4):
        yield _mat(rng, field, n, n, density=0.7)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_polynomials_of_matrices_match_scalar_oracle(field, dense_oracle):
    rng = random.Random(f"minpoly:{field!r}")
    for m in _square_mats(rng, field):
        sm = scalar_rows(m)
        p = _poly(rng, field, rng.randint(0, 4))
        assert scalar_rows(eval_poly_at(p, m)) == _s_horner(field, _s_poly(p), sm)
        f = minimal_polynomial(m)
        assert _s_poly(f) == _s_minimal_polynomial(field, sm, dense_oracle)
        assert eval_poly_at(f, m).is_zero()


# ---------------------------------------------------------------------------
# tensor elements
# ---------------------------------------------------------------------------


def _words(rng, n, max_len):
    length = rng.randint(0, max_len)
    return tuple(rng.randint(1, n) for _ in range(length))


def _elem(rng, space, size=4, max_len=3):
    return TensorElem(space, {_words(rng, space.dim, max_len): _entry(rng, space.field) for _ in range(size)})


def _split(rng, space, size=4, max_len=2):
    n = space.dim
    return SplitTensorElem(
        space, {(_words(rng, n, max_len), _words(rng, n, max_len)): _entry(rng, space.field) for _ in range(size)}
    )


def _s_terms(t):
    """An element's terms as Scalars."""
    return {k: t.space.field(c) for k, c in t.terms.items()}


def _s_collect(field, pairs):
    """Sum Scalar values per key and drop the zero sums."""
    out = {}
    for k, v in pairs:
        out[k] = out.get(k, field.zero) + v
    return {k: v for k, v in out.items() if v}


def _s_braided_mul(x, y):
    """The braided product on T (x) T, reading as Scalars the entries of
    the dense braid lift along the block transposition's braid word."""
    space, field = x.space, x.space.field
    n = space.dim
    lifts = {}
    pairs = []
    for (u, v), a in _s_terms(x).items():
        for (u2, v2), b in _s_terms(y).items():
            if not v or not u2:
                pairs.append(((u + u2, v + v2), a * b))
                continue
            key = (len(v), len(u2))
            if key not in lifts:
                lifts[key] = braid_lift(space, block_word(*key), sum(key))
            m = lifts[key]
            j = word_index(v + u2, n)
            for i in range(m.rows):
                if m[i, j]:
                    w = index_word(i, n, len(v) + len(u2))
                    pairs.append(((u + w[: len(u2)], w[len(u2):] + v2), a * b * field(m[i, j])))
    return _s_collect(field, pairs)


def _structures(field, rng):
    """The table rows and one seeded conjugate of each."""
    for row in range(1, 9):
        q = row_instance(row, field, default_gamma(row, field))
        yield q
        while True:
            alpha = Mat.from_rows(field, [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
            if alpha.rank() == 2:
                break
        yield conjugate(q, alpha)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_tensor_arithmetic_matches_scalar_oracle(field):
    rng = random.Random(f"tensor:{field!r}")
    spaces = [q.space for q in _structures(field, rng)][:6]
    for space in spaces:
        for _ in range(8):
            a, b = _elem(rng, space), _elem(rng, space)
            sa, sb = _s_terms(a), _s_terms(b)
            s = _entry(rng, field)
            assert _s_terms(a + b) == _s_collect(field, [*sa.items(), *sb.items()])
            assert _s_terms(a - b) == _s_collect(field, [*sa.items(), *((w, -c) for w, c in sb.items())])
            assert _s_terms(a.scale(s)) == _s_collect(field, ((w, field(s) * c) for w, c in sa.items()))
            assert _s_terms(a * b) == _s_collect(field, ((u + v, x * y) for u, x in sa.items() for v, y in sb.items()))
            assert (a - a).is_zero() and a == TensorElem(space, sa)

            x, y = _split(rng, space), _split(rng, space)
            sx, sy = _s_terms(x), _s_terms(y)
            assert _s_terms(x + y) == _s_collect(field, [*sx.items(), *sy.items()])
            assert _s_terms(x - y) == _s_collect(field, [*sx.items(), *((k, -c) for k, c in sy.items())])
            assert _s_terms(x.scale(s)) == _s_collect(field, ((k, field(s) * c) for k, c in sx.items()))
            assert _s_terms(braided_mul_split(x, y)) == _s_braided_mul(x, y)
            assert x * y == braided_mul_split(x, y) and x == SplitTensorElem(space, sx)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_nf_split_matches_scalar_oracle(field):
    # on the table rows and a seeded conjugate of each: the normal forms of
    # the relations' coproducts (which vanish) and of the coproducts of the
    # words of length <= 3 and of random elements of T (x) T
    rng = random.Random(f"nf_split:{field!r}")
    nonzero = 0
    for q in _structures(field, rng):
        space = q.space
        pres = uq_relations(q, split_minpoly(space))
        trunc = ideal_truncation(pres, 3)
        inputs = [coproduct(r) for r in pres.relations]
        inputs += [coproduct(TensorElem.word(space, w)) for n in range(4) for w in product((1, 2), repeat=n)]
        inputs += [_split(rng, space, 6, 3) for _ in range(3)]
        for s in inputs:
            pairs = []
            for (u, v), c in _s_terms(s).items():
                for wu, cu in _s_terms(trunc.nf_word(u)).items():
                    for wv, cv in _s_terms(trunc.nf_word(v)).items():
                        pairs.append(((wu, wv), c * cu * cv))
            got = trunc.nf_split(s)
            assert _s_terms(got) == _s_collect(field, pairs)
            nonzero += not got.is_zero()
        assert all(trunc.nf_split(coproduct(r)).is_zero() for r in pres.relations)
    assert nonzero > 100
