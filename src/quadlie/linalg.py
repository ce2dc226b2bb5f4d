"""Dense exact linear algebra and univariate polynomials over Q or GF(p).

Matrices, subspaces and polynomials hold raw field values (ints or
Fractions over Q, residues over GF(p)).  All elimination goes through one
fraction-free sparse echelon; dense ``rref``, ``rank`` and ``kernel`` are
views of it.
Canonical answers (reduced echelon bases) make subspace equality a
representation equality.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fields import CheckFailed, FieldMismatch


class HypothesisViolated(CheckFailed, ValueError):
    """A caller-supplied hypothesis fails (detected from its consequences)."""


class Mat:
    """A dense rows x cols matrix of raw values over one field: ints or
    Fractions over Q, residues in [0, p) over GF(p).

    The constructor takes raw rows as they are, without coercion, because
    it runs inside every operation; ``from_rows`` coerces ints, Fractions
    and Scalars.  Treated as immutable: operations return fresh matrices.
    """

    __slots__ = ("field", "rows", "cols", "a")

    def __init__(self, field, a):
        self.field = field
        self.a = [list(row) for row in a]
        self.rows = len(self.a)
        self.cols = len(self.a[0]) if self.a else 0
        for row in self.a:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @classmethod
    def from_rows(cls, field, rows):
        coerce = field.coerce
        return cls(field, [[coerce(x) for x in row] for row in rows])

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field, rows, cols):
        return cls(field, [[0] * cols for _ in range(rows)])

    def _reduced(self, rows):
        """A matrix over this field of rows of exact values (sums and
        products of raw ones), reduced mod p over GF(p)."""
        p = self.field.p
        return Mat(self.field, rows if p is None else [[x % p for x in r] for r in rows])

    def __getitem__(self, ij):
        i, j = ij
        return self.a[i][j]

    def row(self, i):
        return tuple(self.a[i])

    def col(self, j):
        return tuple(self.a[i][j] for i in range(self.rows))

    def _same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} and {other.rows}x{other.cols}")

    def __add__(self, other):
        self._same_shape(other)
        return self._reduced([[x + y for x, y in zip(r, s)] for r, s in zip(self.a, other.a)])

    def __sub__(self, other):
        self._same_shape(other)
        return self._reduced([[x - y for x, y in zip(r, s)] for r, s in zip(self.a, other.a)])

    def __neg__(self):
        return self._reduced([[-x for x in r] for r in self.a])

    def scale(self, s):
        s = self.field.coerce(s)
        return self._reduced([[s * x for x in r] for r in self.a])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if other.field is not self.field:
            raise FieldMismatch(f"operands over {self.field!r} and {other.field!r}")
        return Mat(self.field, raw_product(self.a, other.a, self.field.p))

    def apply(self, vec):
        """Matrix times column vector (a sequence of values that
        ``Field.coerce`` takes), as a tuple of raw values."""
        if len(vec) != self.cols:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} applied to a {len(vec)}-vector")
        vec = [self.field.coerce(x) for x in vec]
        out = [sum(x * y for x, y in zip(r, vec) if x) for r in self.a]
        p = self.field.p
        return tuple(out) if p is None else tuple(s % p for s in out)

    def is_zero(self):
        return all(not x for r in self.a for x in r)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.field is other.field and (self.rows, self.cols, self.a) == (other.rows, other.cols, other.a)

    def __hash__(self):
        return hash((id(self.field), self.rows, self.cols, tuple(x for r in self.a for x in r)))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.a)
        return f"Mat[{body}]"

    def rref(self):
        """Reduced row echelon form: (matrix, pivot column list), the rows
        of the echelon of self in pivot order with zero rows below."""
        ech = SparseEchelon(self.field, self.a)
        pivots = sorted(ech.pivots())
        out = [[0] * self.cols for _ in range(self.rows)]
        for r, c in zip(out, pivots):
            for k, x in ech.row(c).items():
                r[k] = x
        return Mat(self.field, out), pivots

    def rank(self):
        return SparseEchelon(self.field, self.a).rank

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("inverse of a nonsquare matrix")
        n = self.rows
        aug = Mat(self.field, [row + [int(i == j) for j in range(n)] for i, row in enumerate(self.a)])
        red, piv = aug.rref()
        if piv != list(range(n)):
            raise HypothesisViolated("matrix is not invertible")
        return Mat(self.field, [red.a[i][n:] for i in range(n)])

    def stack(self, other):
        """Rows of self above rows of other."""
        if self.cols != other.cols:
            raise ValueError("column mismatch")
        return Mat(self.field, self.a + other.a)


def raw_product(a, b, p=None):
    """The product of two matrices given as lists of rows of raw values.

    Each row of a accumulates over the nonzeros of b's rows, on the exact
    values (Fractions or ints over Q, p None); over GF(p) the entries are
    reduced mod p once, at the end.  Entries that no product reaches are
    the int 0.
    """
    if a and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a[0])} columns @ {len(b)} rows")
    width = len(b[0]) if b else 0
    nonzeros = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * width
        for x, nz in zip(row, nonzeros):
            if x:
                for j, y in nz:
                    acc[j] += x * y
        out.append(acc if p is None else [v % p for v in acc])
    return out


def integral(values):
    """(ints, d) with values = ints / d, for Fractions or ints: d is the
    lcm of their denominators (1 for ints)."""
    values = list(values)
    d = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def solve(a: Mat, b):
    """One solution x of a x = b (b a sequence of values that
    ``Field.coerce`` takes) as raw values, or None if inconsistent."""
    coerce = a.field.coerce
    aug = Mat(a.field, [list(row) + [coerce(bv)] for row, bv in zip(a.a, b)])
    red, piv = aug.rref()
    if a.cols in piv:
        return None
    x = [0] * a.cols
    for r, c in enumerate(piv):
        x[c] = red.a[r][a.cols]
    return tuple(x)


class Subspace:
    """A subspace of K^ambient_dim with its unique reduced echelon basis.

    The spanning vectors and the basis hold raw values.
    """

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field, ambient_dim, vectors):
        self.field = field
        self.ambient_dim = ambient_dim
        vecs = [v for v in vectors if any(v)]
        if vecs:
            red, piv = Mat(field, vecs).rref()
            self.basis = tuple(tuple(red.a[i]) for i in range(len(piv)))
        else:
            self.basis = ()

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim, [])

    @classmethod
    def full(cls, field, ambient_dim):
        return cls(field, ambient_dim, Mat.identity(field, ambient_dim).a)

    @property
    def dim(self):
        return len(self.basis)

    def coords(self, vec):
        """Coordinates of vec (values that ``Field.coerce`` takes) in the
        echelon basis, as raw values, or None if outside.  The basis is
        reduced, so the coordinates are the entries of vec at the pivots."""
        p = self.field.p
        vec = [self.field.coerce(x) for x in vec]
        out = tuple(vec[next(j for j, x in enumerate(b) if x)] for b in self.basis)
        for c, b in zip(out, self.basis):
            if c:
                vec = [x - c * y for x, y in zip(vec, b)]
        if any(x if p is None else x % p for x in vec):
            return None
        return out

    def contains(self, vec):
        return self.coords(vec) is not None

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field is other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((id(self.field), self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def kernel(m: Mat) -> Subspace:
    """Canonical echelon basis of the right null space of m."""
    return Subspace(m.field, m.cols, null_space(m.field, m.a, m.cols))


def column_space(m: Mat) -> Subspace:
    return Subspace(m.field, m.rows, [list(c) for c in zip(*m.a)] if m.a else [])


class Poly:
    """A univariate polynomial, raw coefficients lowest degree first; the
    constructor coerces ints, Fractions and Scalars."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = [field.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return Poly(self.field, [x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        """The product with a polynomial, or with a field value."""
        if not isinstance(other, Poly):
            s = self.field.coerce(other)
            return Poly(self.field, [c * s for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
        return Poly(self.field, out)

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = Poly(self.field, [])
        r = self
        inv = self.field.inv(other.coeffs[-1])
        while not r.is_zero() and r.degree >= other.degree:
            t = Poly(self.field, [0] * (r.degree - other.degree) + [r.coeffs[-1] * inv])
            q = q + t
            r = r - t * other
        return q, r

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def monic(self):
        if self.is_zero():
            return self
        return self * self.field.inv(self.coeffs[-1])

    def eval_scalar(self, x):
        """The value at x (an int, Fraction or Scalar), as a Scalar."""
        x = self.field.coerce(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return self.field(acc)

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            mon = "" if i == 0 else ("X" if i == 1 else f"X^{i}")
            cs = str(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            if mon and cs == "1":
                cs = ""
            body = f"{cs}{mon}" if not (cs and mon) else f"{cs}*{mon}"
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)


def poly_gcd_bezout(a: Poly, b: Poly):
    """(g, u, v) with g = gcd(a, b) monic and u a + v b = g."""
    field = a.field
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd of two zero polynomials")
    r0, r1 = a, b
    u0, u1 = Poly(field, [1]), Poly(field, [])
    v0, v1 = Poly(field, []), Poly(field, [1])
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    lead = field.inv(r0.coeffs[-1])
    return r0 * lead, u0 * lead, v0 * lead


def eval_poly_at(p: Poly, m: Mat) -> Mat:
    """p(m) by Horner's rule over matrices."""
    if m.rows != m.cols:
        raise ValueError("polynomial evaluation needs a square matrix")
    acc = Mat.zero(m.field, m.rows, m.cols)
    eye = Mat.identity(m.field, m.rows)
    for c in reversed(p.coeffs):
        acc = acc @ m + eye.scale(c)
    return acc


def minimal_polynomial(m: Mat) -> Poly:
    """Least-degree monic annihilator of m, via dependence among powers:
    m^0, m^1, ... go into one echelon, m^k flattened and tagged by a
    coordinate n^2 + k after its entries, and the first power whose entries
    reduce to zero leaves a row of tags, the annihilator's coefficients."""
    if m.rows != m.cols:
        raise ValueError("minimal polynomial of a nonsquare matrix")
    field = m.field
    n2 = m.rows**2
    ech = SparseEchelon(field)
    power = Mat.identity(field, m.rows)
    for k in range(m.rows + 1):  # the degree is at most the size (Cayley-Hamilton)
        pivot = ech.insert([x for row in power.a for x in row] + [0] * k + [1])
        if pivot >= n2:
            row = ech.row(pivot)
            return Poly(field, [row.get(n2 + i, 0) for i in range(k + 1)]).monic()
        power = power @ m


def complement_split(m_alpha: Mat, m_beta: Mat):
    """Images of two commuting annihilating evaluations split the space.

    Given A = alpha(c) and B = beta(c) with A B = 0 and gcd(alpha, beta) = 1,
    returns (Im A, Im B) and checks Im A = ker B and Im A + Im B is a direct
    sum filling the whole space.  A failed check means the caller's gcd or
    annihilation hypothesis was wrong.
    """
    if not (m_alpha @ m_beta).is_zero():
        raise HypothesisViolated("product of the evaluated matrices is nonzero")
    im_a = column_space(m_alpha)
    im_b = column_space(m_beta)
    if im_a != kernel(m_beta):
        raise HypothesisViolated("image of the first factor is not the kernel of the second")
    if im_a.dim + im_b.dim != m_alpha.rows:
        raise HypothesisViolated("images do not span complementarily")
    joint = Subspace(m_alpha.field, m_alpha.rows, [list(v) for v in im_a.basis + im_b.basis])
    if joint.dim != m_alpha.rows:
        raise HypothesisViolated("images are not complementary")
    return im_a, im_b


class SparseEchelon:
    """Incremental reduced echelon structure over integer coordinates.

    Rows are sparse dicts coord -> raw field value; the pivot of a row is
    its smallest coordinate and rows are kept fully reduced (tails contain
    no pivot of any other row), which makes normal forms canonical.

    Over GF(p) a row holds residues and is monic at its pivot.  Over Q a
    row is kept fraction-free (Bareiss): integer entries whose content is
    1, with a positive pivot entry that is the row's denominator, so the
    row stands for entries / pivot entry and equal rows have equal dicts.
    Vectors come in as sparse dicts or dense sequences of raw values (any
    int represents its residue over GF(p)) and leave raw through ``row``
    and ``reduce``.  ``vectors`` are inserted at construction.
    """

    def __init__(self, field, vectors=()):
        self.field = field
        self.rows = {}  # pivot coord -> {coord: int}, canonical as above
        self._col_index = {}  # coord -> set of pivots whose row touches it
        for vec in vectors:
            self.insert(vec)

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        return self.rows.keys()

    def row(self, pivot):
        """The row with this pivot as raw values, monic at the pivot."""
        r = self.rows[pivot]
        if self.field.p is not None:
            return dict(r)
        d = r[pivot]
        return {k: Fraction(x, d) for k, x in r.items()}

    def _integral(self, vec):
        """(a, den): an integer dict a without zeros, vec = a / den."""
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        p = self.field.p
        if p is not None:
            return {k: r for k, x in items if (r := x % p)}, 1
        vals = {k: x for k, x in items if x}
        den = math.lcm(*(x.denominator for x in vals.values()))
        return {k: x.numerator * (den // x.denominator) for k, x in vals.items()}, den

    def _eliminate(self, a):
        """(w, m) with w = m a - (a combination of rows) free of pivots and
        of zeros; a is consumed.  Over Q, m is the lcm of the denominators
        of the rows used; over GF(p), m = 1 and w holds residues.  Tails
        contain no pivots, so every pivot of a is cleared in one pass."""
        rows = self.rows
        hits = [c for c in a if c in rows]
        if not hits:
            return a, 1
        p = self.field.p
        m = 1 if p is not None else math.lcm(*(rows[c][c] for c in hits))
        if m != 1:
            for k in a:
                a[k] *= m
        for c in hits:
            row = rows[c]
            f = a[c] // row[c]
            for k, x in row.items():
                a[k] = a.get(k, 0) - f * x
        if p is None:
            return {k: x for k, x in a.items() if x}, m
        return {k: r for k, x in a.items() if (r := x % p)}, 1

    def reduce(self, vec):
        """Fully reduce a sparse dict against the stored rows; the result
        has raw values (Fractions over Q, residues over GF(p))."""
        a, den = self._integral(vec)
        w, m = self._eliminate(a)
        if self.field.p is not None:
            return w
        den *= m
        return {k: Fraction(x, den) for k, x in w.items()}

    def insert(self, vec):
        """Reduce and add a vector; returns the new pivot or None."""
        w, _ = self._eliminate(self._integral(vec)[0])
        if not w:
            return None
        p = min(w)
        modulus = self.field.p
        # the stored form: monic over GF(p); content 1 and a positive
        # pivot entry over Q
        if modulus is not None:
            inv = pow(w[p], -1, modulus)
            row = {k: x * inv % modulus for k, x in w.items()}
        else:
            g = math.gcd(*w.values())
            if w[p] < 0:
                g = -g
            row = {k: x // g for k, x in w.items()}
        rows, index = self.rows, self._col_index
        rows[p] = row
        for k in row:
            if k != p:
                index.setdefault(k, set()).add(p)
        # Keep existing rows reduced against the new pivot, in place:
        # r <- d r - r[p] row, with d = row[p] (1 over GF(p)), content 1.
        d = row[p]
        tail = [(k, x) for k, x in row.items() if k != p]
        for q in index.pop(p, ()):
            r = rows[q]
            f = r.pop(p)
            if d != 1:
                for k in r:
                    r[k] *= d
            for k, x in tail:
                old = r.get(k)
                nv = -f * x if old is None else old - f * x
                if modulus is not None:
                    nv %= modulus
                if nv:
                    r[k] = nv
                    if old is None:
                        index.setdefault(k, set()).add(q)
                else:
                    del r[k]
                    index[k].discard(q)
            if modulus is None:
                g = math.gcd(*r.values())
                if g != 1:
                    for k in r:
                        r[k] //= g
        return p

    def contains(self, vec):
        return not self.reduce(vec)


def null_space(field, rows, ncols):
    """Raw-valued basis of {x in K^ncols : r . x = 0 for every row r}.

    Rows are dense sequences or sparse dicts of raw values, or a
    SparseEchelon that holds them.  There is one vector per free column f,
    in increasing order, read off the reduced rows: x[f] = 1,
    x[q] = -(row q)[f] at every pivot q, and zero elsewhere.  Entries are
    residues over GF(p) and Fractions (or the ints 0 and 1) over Q.
    """
    ech = rows if isinstance(rows, SparseEchelon) else SparseEchelon(field, rows)
    p = field.p
    free = [c for c in range(ncols) if c not in ech.rows]
    out = {}
    for f in free:
        out[f] = [0] * ncols
        out[f][f] = 1
    for q, row in ech.rows.items():
        d = row[q]
        for k, x in row.items():
            if k != q:
                out[k][q] = -x % p if p is not None else Fraction(-x, d)
    return [out[f] for f in free]
