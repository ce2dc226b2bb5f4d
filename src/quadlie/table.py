"""The canonical two-dimensional classification table.

Eight canonical forms (c, b) of two-dimensional quadratic Lie algebras
with one-dimensional bracket image, some carrying a parameter gamma.
Every emitted instance is re-verified against the bracket axioms, its
minimal polynomial, and its enveloping-algebra relation span.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braided import BraidedSpace, split_minpoly
from .brackets import QuadraticLieAlgebra, verify_lifted
from .envelope import relation_span_equal, uq_relations
from .fields import Field
from .jsonio import mat_to_json, scalar_to_json
from .linalg import Mat, Poly
from .tensoralg import sorted_terms

ROW_INDICES = range(1, 9)

#: gamma rules: structural validity and the table's canonical-value column.
GAMMA_RULES = {
    1: None,
    2: None,
    3: "zero_one_or_nonsquare",
    4: "zero_one_or_nonsquare",
    5: None,
    6: "not_zero_one",
    7: "not_plus_minus_one",
    8: "one_or_nonsquare",
}


def gamma_allowed(row: int, field: Field, gamma) -> bool:
    """Structural constraints a gamma instantiation must satisfy."""
    rule = GAMMA_RULES[row]
    if rule is None:
        return gamma is None
    if gamma is None:
        return False
    g = field(gamma)
    if row == 6:
        return bool(g) and g != field.one
    if row == 7:
        return g != field.one and g != -field.one
    if row == 8:
        return bool(g)
    return True  # rows 3, 4: every gamma yields a valid instance


def gamma_canonical(row: int, field: Field, gamma) -> bool:
    """Whether gamma is a canonical representative for the row's column."""
    rule = GAMMA_RULES[row]
    if rule is None:
        return gamma is None
    g = field(gamma)
    if rule == "zero_one_or_nonsquare":
        return not g or g == field.one or not g.is_square()
    if rule == "not_zero_one":
        return bool(g) and g != field.one
    if rule == "not_plus_minus_one":
        return g != field.one and g != -field.one
    if rule == "one_or_nonsquare":
        return g == field.one or (bool(g) and not g.is_square())
    raise AssertionError(rule)


def _c_rows(row: int, field: Field, g):
    o, z = 1, 0
    if row == 1:
        return [[o, z, z, z], [z, z, o, z], [z, o, z, z], [z, z, z, o]]
    if row == 2:
        return [[o, o, -o, z], [z, z, o, z], [z, o, z, z], [z, z, z, o]]
    if row == 3:
        return [[-o, z, z, g], [z, z, o, z], [z, o, z, z], [z, z, z, o]]
    if row == 4:
        return [[o, z, z, g], [z, z, o, z], [z, o, z, z], [z, z, z, -o]]
    if row == 5:
        return [[z, o, z, z], [z, z, o, z], [z, o, z, z], [z, z, z, o]]
    if row == 6:
        gi = field(g).inverse()
        return [[z, z, z, z], [z, z, g, z], [z, gi, z, z], [z, z, z, o]]
    if row == 7:
        return [[g, z, z, z], [z, z, o, z], [z, o, z, z], [z, z, z, o]]
    if row == 8:
        return [[o, z, z, g], [z, z, o, z], [z, o, z, z], [z, z, z, o]]
    raise ValueError(f"no canonical form {row}")


def _beta_rows(row: int, field: Field, g):
    if row == 4:
        return [[0, 0, 0, 1], [0, 0, 0, 0]]
    if row == 6:
        return [[0, 1, -field(g), 0], [0, 0, 0, 0]]
    return [[0, 1, -1, 0], [0, 0, 0, 0]]


def expected_minpoly(row: int, field: Field, gamma=None) -> Poly:
    if row in (1, 2, 3, 4):
        return Poly(field, [-1, 0, 1])
    if row in (5, 6):
        return Poly(field, [0, -1, 0, 1])
    if row == 7:
        g = field(gamma)
        return Poly(field, [g, -field.one, -g, field.one])
    if row == 8:
        return Poly(field, [1, -1, -1, 1])
    raise ValueError(f"no canonical form {row}")


def expected_relations(row: int, field: Field, gamma=None):
    """The listed relation generators, as word -> coefficient dicts."""
    g = field(gamma) if gamma is not None else None
    o = field.one
    if row == 1:
        return [{(2, 1): o, (1, 2): -o, (1,): o}]
    if row == 2:
        return [{(1, 1): o, (2, 1): -o, (1, 2): o, (1,): -o}]
    if row == 3:
        return [{(1, 1): o}, {(2, 1): o, (1, 2): -o, (1,): o}]
    if row == 4:
        return [{(2, 1): o, (1, 2): -o}, {(1, 1): g, (2, 2): field(-2), (1,): -o}]
    if row == 5:
        return [{(1, 1): o, (2, 1): -o, (1, 2): o, (1,): o}]
    if row == 6:
        return [{(2, 1): -g, (1, 2): o, (1,): g}]
    if row == 7:
        return [{(2, 1): o + g, (1, 2): -(o + g), (1,): -o}]
    if row == 8:
        return [{(2, 1): field(2), (1, 2): field(-2), (1,): -o}]
    raise ValueError(f"no canonical form {row}")


def row_instance(row: int, field: Field, gamma=None) -> QuadraticLieAlgebra:
    """Instantiate a canonical form over a field (char != 2)."""
    field.require_odd_char()
    if not gamma_allowed(row, field, gamma):
        raise ValueError(f"gamma {gamma!r} not allowed for canonical form {row}")
    g = field(gamma) if gamma is not None else None
    c = Mat.from_rows(field, _c_rows(row, field, g))
    beta = Mat.from_rows(field, _beta_rows(row, field, g))
    space = BraidedSpace(field, 2, c)
    return QuadraticLieAlgebra(space, beta)


def default_gamma(row: int, field: Field):
    """A convenient canonical gamma for parametric rows (2 over Q)."""
    if GAMMA_RULES[row] is None:
        return None
    if field.is_rationals:
        return field(2)
    for g in field.elements():
        if gamma_allowed(row, field, g) and gamma_canonical(row, field, g):
            return g
    raise ValueError(f"no canonical gamma in {field!r} for row {row}")


@dataclass(frozen=True)
class TableRow:
    row: int
    gamma: object
    algebra: QuadraticLieAlgebra
    minpoly: Poly
    relations: tuple
    gamma_constraint: str

    def as_dict(self):
        n = self.algebra.space.dim
        return {
            "row": self.row,
            "gamma": None if self.gamma is None else scalar_to_json(self.gamma),
            "c": mat_to_json(self.algebra.space.c),
            "beta": mat_to_json(self.algebra.beta),
            "minimal_polynomial": repr(self.minpoly),
            # raw dicts, not TensorElems: a zero coefficient (row 4 at
            # gamma = 0) is part of the listed relation
            "relations": [
                [{"word": list(w), "coeff": scalar_to_json(c)} for w, c in sorted_terms(r, n)]
                for r in self.relations
            ],
            "gamma_constraint": self.gamma_constraint,
        }


_CONSTRAINT_TEXT = {
    None: "absent",
    "zero_one_or_nonsquare": "0, 1, or a nonsquare",
    "not_zero_one": "any value except 0 and 1",
    "not_plus_minus_one": "any value except 1 and -1",
    "one_or_nonsquare": "1 or a nonsquare",
}


def table_emit(field: Field, gamma=None) -> list:
    """The full table over a field, re-verified row by row.

    A failed verification is a build-breaking bug, so it raises.
    """
    out = []
    for row in ROW_INDICES:
        if GAMMA_RULES[row] is None:
            g = None
        else:
            g = gamma if gamma is not None and gamma_allowed(row, field, gamma) else default_gamma(row, field)
        q = row_instance(row, field, g)
        rep = verify_lifted(q)
        if not rep.ok:
            raise AssertionError(f"canonical form {row} failed verification: {rep}")
        split = split_minpoly(q.space)
        f = expected_minpoly(row, field, g)
        if split is None or split.f != f:
            raise AssertionError(f"canonical form {row} has unexpected minimal polynomial")
        pres = uq_relations(q, split)
        if not relation_span_equal(pres, expected_relations(row, field, g)):
            raise AssertionError(f"canonical form {row} has unexpected relation span")
        out.append(
            TableRow(
                row=row,
                gamma=field(g) if g is not None else None,
                algebra=q,
                minpoly=f,
                relations=tuple(expected_relations(row, field, g)),
                gamma_constraint=_CONSTRAINT_TEXT[GAMMA_RULES[row]],
            )
        )
    return out
