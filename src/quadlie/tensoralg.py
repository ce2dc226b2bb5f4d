"""The braided tensor algebra at bounded degree.

Elements are finitely supported maps from words over {1..n} to raw field
values; the empty word is the unit.  The coproduct is the unique algebra
map T -> T (x) T sending letters x to x (x) 1 + 1 (x) x, where T (x) T
multiplies through the crossing of the middle factors; its (1,1)
component is Id + c, so degree-two primitives agree with ker(c + Id).
"""

from __future__ import annotations

from itertools import chain

from .braided import BraidedSpace, all_words, apply_at, index_word, per_space, sparse_columns, word_index
from .fields import CheckFailed
from .linalg import Mat, Subspace, kernel


class DegreeMismatch(CheckFailed, ValueError):
    """Element is not homogeneous of the expected degree."""


def sorted_terms(terms, n):
    """The items of a word -> coefficient mapping over n letters, in
    (length, tensor index) order."""
    return sorted(terms.items(), key=lambda it: (len(it[0]), word_index(it[0], n)))


def add_up(pairs):
    """The dict key -> sum of the values paired with the key, for (key,
    raw value) pairs; the element constructors reduce it and drop zeros."""
    out = {}
    get = out.get
    for k, v in pairs:
        out[k] = get(k, 0) + v
    return out


def _mono(w):
    return "".join(f"x{i}" for i in w) or "1"


class _Combination:
    """A finitely supported linear combination with raw coefficients over
    a braided space: the arithmetic that TensorElem and SplitTensorElem
    share.  Each subclass builds its own terms in its constructor."""

    __slots__ = ("space", "terms")

    def __add__(self, other):
        return type(self)(self.space, add_up(chain(self.terms.items(), other.terms.items())))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        s = self.space.field.coerce(s)
        return type(self)(self.space, {k: c * s for k, c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.space is other.space and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{self._key_str(k)}" for k, c in self.sorted_terms())


class TensorElem(_Combination):
    """A finitely supported linear combination of words (filtered element),
    with raw coefficients; the constructor coerces ints, Fractions and
    Scalars and drops zero terms."""

    __slots__ = ()
    _key_str = staticmethod(_mono)

    def __init__(self, space: BraidedSpace, terms=None):
        self.space = space
        coerce = space.field.coerce
        self.terms = {tuple(w): x for w, c in (terms or {}).items() if (x := coerce(c))}

    @classmethod
    def unit(cls, space):
        return cls(space, {(): 1})

    @classmethod
    def letter(cls, space, i):
        if not 1 <= i <= space.dim:
            raise ValueError(f"letter {i} out of range")
        return cls(space, {(i,): 1})

    @classmethod
    def word(cls, space, w, coeff=1):
        return cls(space, {tuple(w): coeff})

    def __mul__(self, other):
        """Concatenation product of the tensor algebra."""
        return TensorElem(
            self.space, add_up((u + v, a * b) for u, a in self.terms.items() for v, b in other.terms.items())
        )

    def degrees(self):
        return sorted({len(w) for w in self.terms})

    def top_degree(self):
        return max((len(w) for w in self.terms), default=0)

    def homogeneous_part(self, d):
        return TensorElem(self.space, {w: c for w, c in self.terms.items() if len(w) == d})

    def __hash__(self):
        return hash((id(self.space), tuple(sorted(self.terms.items()))))

    def sorted_terms(self):
        return sorted_terms(self.terms, self.space.dim)


class SplitTensorElem(_Combination):
    """An element of T (x) T: a map from pairs of words to raw values; the
    constructor coerces as TensorElem's does.  Unhashable."""

    __slots__ = ()

    def __init__(self, space, terms=None):
        self.space = space
        coerce = space.field.coerce
        self.terms = {(tuple(u), tuple(v)): x for (u, v), c in (terms or {}).items() if (x := coerce(c))}

    @staticmethod
    def _key_str(k):
        return f"{_mono(k[0])}(x){_mono(k[1])}"

    @classmethod
    def unit(cls, space):
        return cls(space, {((), ()): 1})

    @classmethod
    def pure(cls, space, u, v, coeff=1):
        return cls(space, {(tuple(u), tuple(v)): coeff})

    def bidegree_part(self, a, b):
        return SplitTensorElem(
            self.space,
            {(u, v): c for (u, v), c in self.terms.items() if len(u) == a and len(v) == b},
        )

    def sorted_terms(self):
        n = self.space.dim
        return sorted(
            self.terms.items(),
            key=lambda it: (
                len(it[0][0]) + len(it[0][1]),
                len(it[0][1]),
                word_index(it[0][0], n),
                word_index(it[0][1], n),
            ),
        )

    def __mul__(self, other):
        return braided_mul_split(self, other)


@per_space
def crossing(space: BraidedSpace, m: int, w) -> tuple:
    """The (word, raw coefficient) pairs, in tensor-index order, of the
    image of the word w under c^(m,n), which moves its first m letters past
    the last n = |w| - m: c^(1,n) = c_n ... c_1 and c^(m,n) =
    (c^(m-1,n) (x) Id)(Id^(m-1) (x) c^(1,n)), so c acts through ``apply_at``
    at slots j ... j+n-1 for j = m ... 1, and no dense lift is built."""
    d, k = space.dim, len(w)
    if not 0 <= m <= k:
        raise ValueError(f"no block of {m} letters in a word of {k}")
    if not all(1 <= i <= d for i in w):
        raise ValueError(f"word {w} has a letter outside 1..{d}")
    cols, p = sparse_columns(space.c.a), space.field.p
    vec = {word_index(w, d): 1}
    for j in range(m, 0, -1):
        for i in range(j, j + k - m):
            vec = apply_at(cols, i, d, vec, p)
    return tuple((index_word(i, d, k), x) for i, x in sorted(vec.items()))


@per_space
def block_braiding(space: BraidedSpace, m: int, n: int) -> Mat:
    """The braid lift c^(m,n) moving the first m tensor factors past the
    last n, as a dense matrix: the column of a word is its ``crossing``."""
    if m < 0 or n < 0:
        raise ValueError("negative block sizes")
    d = space.dim
    out = Mat.zero(space.field, d ** (m + n), d ** (m + n))
    for j, w in enumerate(all_words(d, m + n)):
        for u, x in crossing(space, m, w):
            out.a[word_index(u, d)][j] = x
    return out


def braided_mul_split(x: SplitTensorElem, y: SplitTensorElem) -> SplitTensorElem:
    """Product on T (x) T: braid the inner factors, then multiply legwise."""
    if x.space is not y.space:
        raise ValueError("operands over different spaces")
    space = x.space

    def terms():
        for (u, v), a in x.terms.items():
            for (u2, v2), b in y.terms.items():
                ab = a * b
                if not v or not u2:
                    yield (u + u2, v + v2), ab
                    continue
                k = len(u2)
                for w, coeff in crossing(space, len(v), v + u2):
                    yield (u + w[:k], w[k:] + v2), ab * coeff

    return SplitTensorElem(space, add_up(terms()))


@per_space
def _word_coproduct(space, w):
    if not w:
        return SplitTensorElem.unit(space)
    i = w[-1]
    letter = SplitTensorElem(space, {((i,), ()): 1, ((), (i,)): 1})
    return braided_mul_split(_word_coproduct(space, w[:-1]), letter)


def coproduct(t: TensorElem) -> SplitTensorElem:
    """The braided-bialgebra coproduct, extended word by word."""
    space = t.space
    return SplitTensorElem(
        space,
        add_up((k, c * x) for w, c in t.terms.items() for k, x in _word_coproduct(space, w).terms.items()),
    )


def delta_component(t: TensorElem, a: int, b: int) -> SplitTensorElem:
    """Projection of the coproduct onto V^(x)a (x) V^(x)b."""
    degs = t.degrees()
    if degs and degs != [a + b]:
        raise DegreeMismatch(f"element has degrees {degs}, expected pure degree {a + b}")
    return coproduct(t).bidegree_part(a, b)


def delta_component_matrix(space: BraidedSpace, a: int, b: int) -> Mat:
    """Matrix of the (a,b) coproduct component on V^(x)(a+b).

    Output coordinates run over pairs (u, v), at the index of the word uv.
    """
    d = space.dim
    rows = d ** (a + b)
    cols = d ** (a + b)
    out = [[0] * cols for _ in range(rows)]
    for j, w in enumerate(all_words(d, a + b)):
        comp = _word_coproduct(space, w).bidegree_part(a, b)
        for (u, v), c in comp.terms.items():
            out[word_index(u + v, d)][j] = c
    return Mat(space.field, out)


def en_space(space: BraidedSpace, n: int) -> Subspace:
    """Degree-n primitives of T: joint kernel of all proper coproduct components."""
    if n < 2:
        raise ValueError("primitives are defined from degree 2 on")
    stacked = None
    for a in range(1, n):
        m = delta_component_matrix(space, a, n - a)
        stacked = m if stacked is None else stacked.stack(m)
    return kernel(stacked)


def tensor_elem_from_vector(space, vec, length) -> TensorElem:
    """Interpret an n^length coordinate vector as a homogeneous element."""
    d = space.dim
    terms = {}
    for i, c in enumerate(vec):
        if c:
            terms[index_word(i, d, length)] = c
    return TensorElem(space, terms)

