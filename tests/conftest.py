"""Shared test fixtures.

``scalar_echelon`` is the Scalar-valued sparse echelon, kept as the oracle
of the raw-value ``quadlie.linalg.SparseEchelon``: rows are dicts
coord -> Scalar, monic at their pivot (the smallest coordinate) and fully
reduced, exactly as the fast structure defines them.

``dense_oracle`` is the dense Scalar Gauss-Jordan elimination, kept as the
oracle of ``Mat.rref``, ``rank``, ``kernel``, ``solve`` and ``inverse``,
which all reduce through ``SparseEchelon``.
"""

import pytest

from quadlie.linalg import HypothesisViolated, Mat


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
        a = [row[:] for row in m.a]
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
        return Mat(m.field, a), pivots

    @classmethod
    def rank(cls, m):
        return len(cls.rref(m)[1])

    @classmethod
    def null_vectors(cls, m):
        """One null vector per free column: 1 there, minus the reduced
        rows' entries of that column at the pivots."""
        red, piv = cls.rref(m)
        vecs = []
        for fc in (c for c in range(m.cols) if c not in piv):
            v = [m.field.zero] * m.cols
            v[fc] = m.field.one
            for r, pc in enumerate(piv):
                v[pc] = -red.a[r][fc]
            vecs.append(v)
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
        aug = Mat(a.field, [list(row) + [bv] for row, bv in zip(a.a, b)])
        red, piv = cls.rref(aug)
        if a.cols in piv:
            return None
        x = [a.field.zero] * a.cols
        for r, c in enumerate(piv):
            x[c] = red.a[r][a.cols]
        return tuple(x)

    @classmethod
    def inverse(cls, m):
        n = m.rows
        eye = Mat.identity(m.field, n)
        red, piv = cls.rref(Mat(m.field, [m.a[i] + eye.a[i] for i in range(n)]))
        if piv != list(range(n)):
            raise HypothesisViolated("matrix is not invertible")
        return Mat(m.field, [red.a[i][n:] for i in range(n)])


@pytest.fixture
def dense_oracle():
    return DenseOracle
