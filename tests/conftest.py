"""Shared test fixtures.

``scalar_echelon`` is the Scalar-valued sparse echelon, kept as the oracle
of the raw-value ``quadlie.linalg.SparseEchelon``: rows are dicts
coord -> Scalar, monic at their pivot (the smallest coordinate) and fully
reduced, exactly as the fast structure defines them.
"""

import pytest


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
