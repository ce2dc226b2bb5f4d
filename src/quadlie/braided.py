"""Braided vector spaces: basis conventions, slot lifts, Yang-Baxter.

Tensor bases are ordered little-endian in the first factor: the word
(i1, ..., ik) over {1..n} has index sum_t (i_t - 1) * n**(t-1).  For
n = 2, k = 2 this is x1(x)x1, x2(x)x1, x1(x)x2, x2(x)x2, so published
4x4 braiding matrices paste in verbatim.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, wraps

from .fields import CheckFailed, Field, Scalar
from .linalg import Mat, Poly, Subspace, eval_poly_at, integral, kernel, minimal_polynomial, null_space


class NotYangBaxter(CheckFailed, ValueError):
    """The proposed braiding fails the Yang-Baxter equation."""


class MinusOneNotSimple(CheckFailed, ValueError):
    """-1 is a multiple root of the braiding's minimal polynomial."""


class IndexOutOfRange(IndexError):
    """Slot index incompatible with the number of tensor factors."""


def word_index(word, n):
    """Index of a word (tuple over {1..n}) in the fixed tensor basis."""
    idx = 0
    for t, i in enumerate(word):
        idx += (i - 1) * n**t
    return idx


def index_word(idx, n, length):
    """Inverse of word_index for a given word length."""
    w = []
    for _ in range(length):
        w.append(idx % n + 1)
        idx //= n
    return tuple(w)


def all_words(n, length):
    """All words of one length, in tensor-basis order (the first letter
    varies fastest)."""
    return [w[::-1] for w in itertools.product(range(1, n + 1), repeat=length)]


def require_words(n, length, limit, what):
    """Reject a computation indexed by the words of length <= length over
    n letters when there are more than limit of them, before any exists,
    or when there are none (a negative length)."""
    if length < 0:
        raise ValueError(f"{what}: no words of length <= {length}")
    total, layer = 0, 1
    for _ in range(length + 1):
        total += layer
        if total > limit:
            raise ValueError(f"{what}: more than {limit} words of length <= {length} over {n} letters")
        layer *= n


def vec_tensor(field, u, v):
    """Tensor product of coordinate vectors of raw values, u in the first
    factors."""
    p = field.p
    return tuple(x * y if p is None else x * y % p for y in v for x in u)


def factor_parts(z, n, slot):
    """The parts w_i of a vector z of V^(x)k split at one factor: for
    slot 1, z = sum_i w_i (x) x_i (an operand on the leading factors);
    for slot 2, z = sum_i x_i (x) w_i (an operand on the trailing ones)."""
    if slot == 1:
        m = len(z) // n
        return [z[m * i : m * (i + 1)] for i in range(n)]
    return [z[i::n] for i in range(n)]


def join_parts(parts, slot):
    """The vector of V^(x)k whose factor_parts at the slot are the given
    parts (lists of equal length)."""
    if slot == 1:
        return [x for w in parts for x in w]
    return [w[k] for k in range(len(parts[0])) for w in parts]


def mat_tensor(field, a: Mat, b: Mat) -> Mat:
    """Matrix of (a on the leading factors) tensor (b on the trailing ones)."""
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    p = field.p
    out = [[0] * cols for _ in range(rows)]
    for o2 in range(b.rows):
        for i2 in range(b.cols):
            s = b.a[o2][i2]
            if not s:
                continue
            for o1 in range(a.rows):
                ro = out[o1 + a.rows * o2]
                ra = a.a[o1]
                for i1 in range(a.cols):
                    if ra[i1]:
                        v = ra[i1] * s
                        ro[i1 + a.cols * i2] = v if p is None else v % p
    return Mat(field, out)


def sparse_columns(op):
    """The columns of a map given as rows of raw values, each as the list
    of (row, entry) over its nonzero entries."""
    return [[(o, row[i]) for o, row in enumerate(op) if row[i]] for i in range(len(op[0]))]


def lift_columns(op, slot, total, n, in_factors, out_factors=None):
    """Sparse columns of a map on V^(x)l lifted to V^(x)total at a slot.

    op is a list of rows of raw values (a falsy entry is a zero) of a map
    from l to m factors acting from the given 1-based slot; the lifted map
    is Id^(slot-1) (x) op (x) Id^(total-slot-l+1).  Returns, for each input
    basis index of V^(x)total, the list of (output index, entry) over the
    nonzero entries of op, placed by the ``slot_pattern`` of op's shape.
    """
    l = in_factors
    rows, cols = len(op), len(op[0])
    m = out_factors if out_factors is not None else (l if rows == cols else None)
    if m is None:
        raise ValueError("out_factors required for a rectangular lift")
    if cols != n**l or rows != n**m:
        raise ValueError("operator shape does not match the declared factor counts")
    if slot < 1 or slot + l - 1 > total:
        raise IndexOutOfRange(f"slot {slot} with {l} factors does not fit in {total}")
    flat = [x for row in op for x in row]
    return [[(o, flat[e]) for o, e in col if flat[e]] for col in slot_pattern(n, slot, total, rows, cols)]


def lift_to_slot(op: Mat, slot: int, total: int, n: int, in_factors: int, out_factors: int | None = None) -> Mat:
    """Lift a map on V^(x)l (acting from the given 1-based slot) to V^(x)total.

    The lifted map is Id^(slot-1) (x) op (x) Id^(total-slot-l+1); its input
    has ``total`` factors, its output total - l + m where op maps l factors
    to m.  The dense view of ``lift_columns``.
    """
    cols = lift_columns(op.a, slot, total, n, in_factors, out_factors)
    out = [[0] * len(cols) for _ in range(op.rows * len(cols) // op.cols)]
    for k, col in enumerate(cols):
        for o, v in col:
            out[o][k] = v
    return Mat(op.field, out)


@cache
def slot_pattern(n, slot, total, height, width):
    """Where each entry of an operator with height rows and width columns
    lands in its lift to V^(x)total at a slot: for each input basis index,
    the (output index, e) of the entry e = r width + i (row r, column i)
    that the lift holds there.  It is the image of each basis vector under
    ``apply_at`` of the matrix of entry labels e + 1, so it holds no
    operator's values and is computed once per shape."""
    labels = sparse_columns([[r * width + i + 1 for i in range(width)] for r in range(height)])
    return tuple(
        tuple((o, e - 1) for o, e in apply_at(labels, slot, n, {k: 1}, None, height).items()) for k in range(n**total)
    )


def apply_at(cols, slot, n, vec, p=None, height=None):
    """The image of a sparse vector {index: value} under Id (x) op (x) Id
    with op at a 1-based slot, without zeros: raw values over Q (p None),
    residues mod p over GF(p).  cols are op's ``sparse_columns`` and height
    its number of rows (len(cols) if None).  No lift is built: index
    low + lo (i + width h), lo = n^(slot-1), goes to low + lo (o + height h)."""
    lo, width = n ** (slot - 1), len(cols)
    height = width if height is None else height
    out = {}
    for k, x in vec.items():
        h, i = divmod(k // lo, width)
        base = k % lo + lo * height * h
        for o, v in cols[i]:
            o = base + lo * o
            out[o] = out.get(o, 0) + x * v
    if p is None:
        return {o: y for o, y in out.items() if y}
    return {o: r for o, y in out.items() if (r := y % p)}


def braid_relation_holds(c, p=None) -> bool:
    """Whether c1 c2 c1 = c2 c1 c2 on V^(x)3, with c1 = c (x) Id and
    c2 = Id (x) c, for c given as n^2 rows of raw values (Fractions or ints
    over Q, p None; integers read mod p over GF(p)).

    Both sides are applied to one basis vector of V^(x)3 at a time, as
    sparse {index: value} dicts through ``apply_at`` at slots 1 and 2,
    and the test stops at the first basis vector whose images differ.
    """
    n = math.isqrt(len(c))
    if p is None:  # the relation is homogeneous in c: test an integer multiple
        n2 = n * n
        flat = integral([x for row in c for x in row])[0]
        c = [flat[o : o + n2] for o in range(0, n2 * n2, n2)]
    cols = sparse_columns(c)

    def braid(first, second, e):
        return apply_at(cols, first, n, apply_at(cols, second, n, apply_at(cols, first, n, e, p), p), p)

    return all(braid(1, 2, {k: 1}) == braid(2, 1, {k: 1}) for k in range(n**3))


def joint_minus_one_rows(c, n):
    """The rows of c (x) Id + Id above those of Id (x) c + Id on V^(x)3,
    from c's raw entries: their null space is the joint (-1)-eigenspace."""
    n3, rows = n**3, []
    for slot in (1, 2):
        block = [[int(o == k) for k in range(n3)] for o in range(n3)]
        for k, col in enumerate(lift_columns(c, slot, 3, n, 2, 2)):
            for o, v in col:
                block[o][k] += v
        rows += block
    return rows


def diagonal_braiding(n, q):
    """The rows of the braiding c(x_i (x) x_j) = q[i][j] x_j (x) x_i on n
    letters, a Yang-Baxter operator for any q."""
    c = [[0] * n**2 for _ in range(n**2)]
    for i in range(n):
        for j in range(n):
            c[j + n * i][i + n * j] = q[i][j]
    return c


_MISSING = object()


def per_space(fn):
    """Memoise fn(space, *args) in the space: computed once per space and
    positional arguments, then returned as is.  An error is not stored, so
    a failing call raises again.  The memo is keyed by the function's
    dotted name, so a space still pickles."""
    name = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def memoised(space, *args):
        key = (name, args)
        value = space._memo.get(key, _MISSING)
        if value is _MISSING:
            value = space._memo[key] = fn(space, *args)
        return value

    return memoised


class BraidedSpace:
    """A finite-dimensional vector space with a Yang-Baxter operator.

    The braiding need not be invertible.  The Yang-Baxter identity is
    verified at construction unless ``check=False`` (enumeration paths
    filter candidates first and check lazily).  What is derived from the
    braiding is kept in one memo, filled through ``per_space``.
    """

    __slots__ = ("field", "dim", "c", "_memo")

    def __init__(self, field: Field, dim: int, c: Mat, *, check: bool = True):
        if dim < 1:
            raise ValueError("dimension must be positive")
        if c.rows != dim**2 or c.cols != dim**2:
            raise ValueError("braiding matrix must be n^2 x n^2")
        if c.field is not field:
            raise ValueError("braiding over the wrong field")
        self.field = field
        self.dim = dim
        self.c = c
        self._memo = {}
        if check and not self.check_yang_baxter():
            raise NotYangBaxter("braiding fails the Yang-Baxter equation")

    @per_space
    def braiding_at(self, slot: int, total: int) -> Mat:
        """The braiding acting on adjacent factors (slot, slot+1) of V^(x)total."""
        return lift_to_slot(self.c, slot, total, self.dim, 2, 2)

    def check_yang_baxter(self) -> bool:
        return braid_relation_holds(self.c.a, self.field.p)

    @per_space
    def minpoly(self) -> Poly:
        return minimal_polynomial(self.c)

    @per_space
    def e2(self) -> Subspace:
        """Degree-two primitives: the kernel of c + Id on V^(x)2."""
        return kernel(self.c + Mat.identity(self.field, self.dim**2))

    @per_space
    def e2bar(self) -> Subspace:
        """Vectors of V^(x)3 sent to their negative by both adjacent braidings."""
        n3 = self.dim**3
        return Subspace(self.field, n3, null_space(self.field, joint_minus_one_rows(self.c.a, self.dim), n3))

    def __repr__(self):
        return f"BraidedSpace(dim {self.dim} over {self.field!r})"


@dataclass(frozen=True)
class MinpolySplit:
    """Factorisation f = (X+1) h of the braiding's minimal polynomial."""

    f: Poly
    h: Poly
    h_at_minus1: Scalar


def split_minpoly(space: BraidedSpace):
    """Split off the simple root -1 of the minimal polynomial of c.

    Returns None when -1 is not a root at all (then the degree-two
    primitives vanish and the enveloping algebra is the free algebra);
    raises MinusOneNotSimple when -1 is a repeated root.
    """
    f = space.minpoly()
    if f.eval_scalar(-1):
        return None
    h, r = divmod(f, Poly(space.field, [1, 1]))
    assert r.is_zero()
    h_m1 = h.eval_scalar(-1)
    if not h_m1:
        raise MinusOneNotSimple("-1 is a repeated root of the minimal polynomial")
    return MinpolySplit(f=f, h=h, h_at_minus1=h_m1)


def h_of_c(space: BraidedSpace, split: MinpolySplit) -> Mat:
    return eval_poly_at(split.h, space.c)


def is_categorical(space: BraidedSpace, sub: Subspace) -> bool:
    """Whether c(L(x)V) <= V(x)L and c(V(x)L) <= L(x)V for L = sub."""
    if sub.ambient_dim != space.dim:
        raise ValueError("subspace must live in V")
    n = space.dim
    if sub.dim == 0:
        return True
    eye_basis = Mat.identity(space.field, n).a
    lv = [vec_tensor(space.field, l, e) for e in eye_basis for l in sub.basis]
    vl = [vec_tensor(space.field, e, l) for l in sub.basis for e in eye_basis]
    span_lv = Subspace(space.field, n**2, lv)
    span_vl = Subspace(space.field, n**2, vl)
    for v in lv:
        if not span_vl.contains(space.c.apply(v)):
            return False
    for v in vl:
        if not span_lv.contains(space.c.apply(v)):
            return False
    return True
