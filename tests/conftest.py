"""Shared test fixtures.

``scalar_echelon`` is the Scalar-valued sparse echelon, kept as the oracle
of the raw-value ``quadlie.linalg.SparseEchelon``: rows are dicts
coord -> Scalar, monic at their pivot (the smallest coordinate) and fully
reduced, exactly as the fast structure defines them.

``dense_oracle`` is the dense Scalar Gauss-Jordan elimination, kept as the
oracle of ``Mat.rref``, ``rank``, ``kernel``, ``solve`` and ``inverse``,
which all reduce through ``SparseEchelon``, and of ``minimal_polynomial``
by the rank of the stacked powers and ``solve``, where the core tags the
powers in one echelon.

The containers hold raw values (ints or Fractions over Q, residues over
GF(p)).  The oracles wrap the entries they read as Scalars, compute on
Scalars, and turn their results back into raw values (``Mat.from_rows``,
``raw``) only to compare them with the core's.

``unit_bracket_space`` assembles the linear bracket axioms from eight unit
brackets through dense Scalar products, kept as the oracle of
``quadlie.brackets.solve_linear_bracket_space``, which writes them as
constraint rows from the entries of c.

``four_product_axioms`` is the integer axiom check by four matrix products,
kept as the oracle of ``quadlie.brackets.axiom_check``, which tests the
linear axioms against the rows of the space's one echelon of them.  The
sweeps of ``quadlie.appendix`` take their candidate test from that check,
so the oracle test wraps it there.  The oracle keeps its own n = 2
integer product and slot lifts, so that it imports none of the kernels it
checks.

``dense_lifted_oracle`` and ``dense_yang_baxter_oracle`` are the four
bracket axioms and the braid relation by dense Scalar products of the
slot-lifted matrices, kept as the oracles of
``quadlie.brackets.verify_lifted`` and
``quadlie.braided.BraidedSpace.check_yang_baxter``, which read the linear
axioms from constraint rows and test the braid relation sparsely on raw
entries.

``block_word`` is the braid word of the block transposition c^(m,n).
``quadlie.nichols.braid_lift`` along it, a product of dense slot-lifted
braidings, is the oracle of ``quadlie.tensoralg.crossing``, which applies c
to one word through ``apply_at``, and of the braided product it serves.

The oracles build their slot lifts with ``mat_tensor`` (``dense_lift``),
multiply by the textbook inner-index sum (``dense_product``) and take null
spaces by the Gauss-Jordan oracle, so none of them runs the raw product,
slot lift or echelon they check.
"""

import pytest

from quadlie.braided import mat_tensor
from quadlie.brackets import LiftedReport
from quadlie.fields import GF
from quadlie.linalg import HypothesisViolated, Mat, Poly


def scalar_rows(m):
    """The entries of a Mat as rows of Scalars."""
    return [[m.field(x) for x in row] for row in m.a]


def block_word(m, n):
    """The braid word of the block transposition, as ``nichols.braid_lift``
    multiplies it left to right: c^(1,n) = c_n ... c_1 and
    c^(m,n) = c^(m-1,n) c_(m+n-1) ... c_m."""
    if m == 0 or n == 0:
        return []
    if m == 1:
        return list(range(n, 0, -1))
    return block_word(m - 1, n) + list(range(m + n - 1, m - 1, -1))


def raw(field, values):
    """A sequence of Scalars (or raw values) as a tuple of raw values."""
    return tuple(field.coerce(x) for x in values)


class ScalarEchelon:
    def __init__(self, field):
        self.field = field
        self.rows = {}  # pivot coord -> {coord: scalar}, monic at pivot
        self._col_index = {}  # coord -> set of pivots whose row touches it

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Fully reduce a sparse dict against the stored rows."""
        vec = {k: v for k, v in vec.items() if v}
        while True:
            hits = [c for c in vec if c in self.rows]
            if not hits:
                return vec
            c = min(hits)
            f = vec[c]
            for k, x in self.rows[c].items():
                nv = vec.get(k)
                nv = -f * x if nv is None else nv - f * x
                if nv:
                    vec[k] = nv
                else:
                    vec.pop(k, None)

    def insert(self, vec):
        """Reduce and add a vector; returns the new pivot or None."""
        v = self.reduce(vec)
        if not v:
            return None
        p = min(v)
        inv = v[p].inverse()
        row = {k: x * inv for k, x in v.items()}
        # Keep existing rows reduced against the new pivot.
        for q in list(self._col_index.get(p, ())):
            r = self.rows[q]
            f = r[p]
            for k, x in row.items():
                nv = r.get(k)
                nv = -f * x if nv is None else nv - f * x
                if nv:
                    r[k] = nv
                    if k != q:
                        self._col_index.setdefault(k, set()).add(q)
                else:
                    r.pop(k, None)
                    if k != q:
                        s = self._col_index.get(k)
                        if s:
                            s.discard(q)
        self.rows[p] = row
        for k in row:
            if k != p:
                self._col_index.setdefault(k, set()).add(p)
        return p


@pytest.fixture
def scalar_echelon():
    return ScalarEchelon


class DenseOracle:
    """Column-by-column Gauss-Jordan on dense rows of Scalars."""

    @staticmethod
    def rref(m):
        """Reduced row echelon form: (matrix, pivot column list)."""
        a = scalar_rows(m)
        pivots = []
        r = 0
        for c in range(m.cols):
            pr = next((i for i in range(r, m.rows) if a[i][c]), None)
            if pr is None:
                continue
            a[r], a[pr] = a[pr], a[r]
            inv = a[r][c].inverse()
            a[r] = [x * inv for x in a[r]]
            for i in range(m.rows):
                if i != r and a[i][c]:
                    f = a[i][c]
                    a[i] = [x - f * y for x, y in zip(a[i], a[r])]
            pivots.append(c)
            r += 1
            if r == m.rows:
                break
        return Mat.from_rows(m.field, a), pivots

    @classmethod
    def rank(cls, m):
        return len(cls.rref(m)[1])

    @classmethod
    def null_vectors(cls, m):
        """One null vector per free column: 1 there, minus the reduced
        rows' entries of that column at the pivots (raw lists)."""
        red, piv = cls.rref(m)
        red = scalar_rows(red)
        vecs = []
        for fc in (c for c in range(m.cols) if c not in piv):
            v = [m.field.zero] * m.cols
            v[fc] = m.field.one
            for r, pc in enumerate(piv):
                v[pc] = -red[r][fc]
            vecs.append(list(raw(m.field, v)))
        return vecs

    @classmethod
    def kernel_basis(cls, m):
        """The reduced echelon basis of the right null space."""
        vecs = cls.null_vectors(m)
        if not vecs:
            return ()
        red, piv = cls.rref(Mat(m.field, vecs))
        return tuple(tuple(red.a[i]) for i in range(len(piv)))

    @classmethod
    def solve(cls, a, b):
        """One solution of a x = b (raw values), as raw values, or None."""
        aug = Mat.from_rows(a.field, [row + [a.field(bv)] for row, bv in zip(scalar_rows(a), b)])
        red, piv = cls.rref(aug)
        if a.cols in piv:
            return None
        x = [a.field.zero] * a.cols
        for r, c in enumerate(piv):
            x[c] = a.field(red.a[r][a.cols])
        return raw(a.field, x)

    @classmethod
    def minimal_polynomial(cls, m):
        """The least k for which m^k adds no rank to the stacked flattened
        powers m^0 ... m^(k-1), and the combination of them that gives m^k,
        by ``solve``."""
        flat = lambda a: [x for row in a.a for x in row]
        powers = [Mat.identity(m.field, m.rows)]
        while True:
            nxt = dense_product(powers[-1], m)
            if cls.rank(Mat(m.field, [flat(a) for a in powers + [nxt]])) == len(powers):
                break
            powers.append(nxt)
        x = cls.solve(Mat(m.field, [list(col) for col in zip(*map(flat, powers))]), flat(nxt))
        return Poly(m.field, [-c for c in x] + [1])

    @classmethod
    def inverse(cls, m):
        n = m.rows
        eye = scalar_rows(Mat.identity(m.field, n))
        red, piv = cls.rref(Mat.from_rows(m.field, [r + e for r, e in zip(scalar_rows(m), eye)]))
        if piv != list(range(n)):
            raise HypothesisViolated("matrix is not invertible")
        return Mat(m.field, [red.a[i][n:] for i in range(n)])


@pytest.fixture
def dense_oracle():
    return DenseOracle


def dense_product(a, b):
    """a @ b with every entry the sum over the inner index, on Scalars."""
    z = a.field.zero
    cols = list(zip(*scalar_rows(b)))
    return Mat.from_rows(
        a.field, [[sum((x * y for x, y in zip(row, col) if x and y), z) for col in cols] for row in scalar_rows(a)]
    )


def dense_lift(m, slot, n):
    """m (x) Id_V for slot 1 and Id_V (x) m for slot 2, by mat_tensor."""
    eye = Mat.identity(m.field, n)
    return mat_tensor(m.field, m, eye) if slot == 1 else mat_tensor(m.field, eye, m)


def unit_bracket_space(space):
    """Basis of the brackets satisfying antisymmetry and both
    braiding-compatibility identities: one constraint column per unit
    bracket, built through its dense slot lifts and products."""
    n = space.dim
    field = space.field
    c, eye2 = space.c, Mat.identity(field, n**2)
    c1, c2 = dense_lift(c, 1, n), dense_lift(c, 2, n)
    c12, c21 = dense_product(c1, c2), dense_product(c2, c1)
    cols = []
    for u in range(n * n**2):
        r, k = divmod(u, n**2)
        beta = Mat.zero(field, n, n**2)
        beta.a[r][k] = 1
        b1, b2 = dense_lift(beta, 1, n), dense_lift(beta, 2, n)
        chunks = [
            dense_product(beta, c + eye2),
            dense_product(c, b1) - dense_product(b2, c12),
            dense_product(c, b2) - dense_product(b1, c21),
        ]
        cols.append([x for m in chunks for row in m.a for x in row])
    big = Mat(field, [list(r) for r in zip(*cols)])
    basis = DenseOracle.kernel_basis(big)
    return [Mat(field, [[v[r * n**2 + k] for k in range(n**2)] for r in range(n)]) for v in basis]


@pytest.fixture
def unit_bracket_oracle():
    return unit_bracket_space


def _int_matmul(a, b, p):
    """a @ b mod p for integer matrices given as rows."""
    return tuple(tuple(sum(x * b[k][j] for k, x in enumerate(row)) % p for j in range(len(b[0]))) for row in a)


def _int_lift12(m):
    """m (x) Id and Id (x) m on three factors of a 2-dimensional space, for
    m with 4 columns and 2 or 4 rows: columns k + 4 j -> rows r + h j and
    columns i + 2 k -> rows i + 2 r, h the row count."""
    h = len(m)
    first = [[0] * 8 for _ in range(2 * h)]
    second = [[0] * 8 for _ in range(2 * h)]
    for r in range(h):
        for k in range(4):
            for j in range(2):
                first[r + h * j][k + 4 * j] = m[r][k]
                second[j + 2 * r][j + 2 * k] = m[r][k]
    return tuple(map(tuple, first)), tuple(map(tuple, second))


class FourProductAxioms:
    """The four bracket axioms of a 2-dimensional braiding mod p, by integer
    matrix products: b (c + Id), c b1 against b2 c1 c2, c b2 against
    b1 c2 c1, and Jacobi on the joint (-1)-eigenspace."""

    def __init__(self, c, p):
        self.c = tuple(tuple(r) for r in c)
        self.p = p
        c1, c2 = _int_lift12(self.c)
        eye8 = [[int(i == j) for j in range(8)] for i in range(8)]
        plus = [[x + y for x, y in zip(r, e)] for m in (c1, c2) for r, e in zip(m, eye8)]
        self.e2bar = DenseOracle.null_vectors(Mat.from_rows(GF(p), plus))
        self.ck1 = tuple(tuple((x + (i == j)) % p for j, x in enumerate(r)) for i, r in enumerate(self.c))
        self.c12 = _int_matmul(c1, c2, p)
        self.c21 = _int_matmul(c2, c1, p)

    def axioms(self, beta):
        p = self.p
        if any(x % p for row in _int_matmul(beta, self.ck1, p) for x in row):
            return False
        b1, b2 = _int_lift12(beta)
        if _int_matmul(self.c, b1, p) != _int_matmul(b2, self.c12, p):
            return False
        if _int_matmul(self.c, b2, p) != _int_matmul(b1, self.c21, p):
            return False
        if self.e2bar:
            jm = _int_matmul(beta, [[(x - y) % p for x, y in zip(r, s)] for r, s in zip(b1, b2)], p)
            for v in self.e2bar:
                for row in jm:
                    if sum(x * y for x, y in zip(row, v)) % p:
                        return False
        return True


@pytest.fixture
def four_product_axioms():
    return FourProductAxioms


def dense_yang_baxter(space):
    """c1 c2 c1 == c2 c1 c2 by dense products of the slot-lifted c."""
    c1, c2 = dense_lift(space.c, 1, space.dim), dense_lift(space.c, 2, space.dim)
    return dense_product(dense_product(c1, c2), c1) == dense_product(dense_product(c2, c1), c2)


@pytest.fixture
def dense_yang_baxter_oracle():
    return dense_yang_baxter


def dense_verify_lifted(q):
    """The four bracket axioms by exact dense matrix identities."""
    space = q.space
    n = space.dim
    c, beta = space.c, q.beta
    eye2, eye3 = Mat.identity(q.field, n**2), Mat.identity(q.field, n**3)
    antisym = dense_product(beta, c + eye2).is_zero()
    c1, c2 = dense_lift(c, 1, n), dense_lift(c, 2, n)
    b1, b2 = dense_lift(beta, 1, n), dense_lift(beta, 2, n)
    bracket_left = dense_product(c, b1) == dense_product(b2, dense_product(c1, c2))
    bracket_right = dense_product(c, b2) == dense_product(b1, dense_product(c2, c1))
    jac_map = dense_product(beta, b1 - b2)
    e2bar = DenseOracle.null_vectors((c1 + eye3).stack(c2 + eye3))
    jacobi = not e2bar or dense_product(jac_map, Mat(q.field, [list(r) for r in zip(*e2bar)])).is_zero()
    return LiftedReport(antisym, bracket_left, bracket_right, jacobi)


@pytest.fixture
def dense_lifted_oracle():
    return dense_verify_lifted
