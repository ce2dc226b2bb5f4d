"""JSON encoding of the library's values and schema-validated input.

Rationals serialize as bare integers or "p/q" strings; prime-field
elements as integers in [0, p).  Matrices are row-major lists of rows.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

import jsonschema

from .braided import BraidedSpace
from .brackets import QuadraticLieAlgebra
from .fields import Field, Scalar
from .linalg import Mat


#: Largest accepted dimension of V: loading checks the braid relation, and
#: ``verify`` on a dense c over Q at dim 6 takes about 1.6 s (2-CPU x86-64
#: VM, Python 3.11), most of it in that check and the bracket-axiom rows.
MAX_DIM = 6


class InputError(ValueError):
    """Malformed input document; message carries a JSON-pointer path."""


def scalar_to_json(s):
    """A Scalar or a raw value as an integer, or a "p/q" string."""
    v = s.v if isinstance(s, Scalar) else s
    if v.denominator == 1:
        return int(v)
    return f"{v.numerator}/{v.denominator}"


def scalar_from_json(field: Field, obj) -> Scalar:
    if isinstance(obj, int):
        if not field.is_rationals and not 0 <= obj < field.p:
            raise InputError(f"prime-field scalars must lie in [0, {field.p}), got {obj}")
        return field(obj)
    if isinstance(obj, str):
        if not field.is_rationals:
            raise InputError(f"prime-field scalars must be integers, got {obj!r}")
        try:
            if "/" in obj:
                num, den = obj.split("/", 1)
                return field(Fraction(int(num), int(den)))
            return field(int(obj))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {obj!r}") from exc
    raise InputError(f"bad scalar {obj!r}")


def field_to_json(f: Field) -> str:
    return "Q" if f.is_rationals else f"GF({f.p})"


def field_from_json(s) -> Field:
    if not isinstance(s, str):
        raise InputError(f"bad field {s!r}")
    t = s.strip()
    if t == "Q":
        return Field()
    if t.startswith("GF"):
        digits = t[2:].strip("()")
        try:
            return Field(int(digits))
        except ValueError as exc:
            raise InputError(f"bad field {s!r}: {exc}") from exc
    raise InputError(f"bad field {s!r}")


def mat_to_json(m: Mat):
    return [[scalar_to_json(x) for x in row] for row in m.a]


def mat_from_json(field: Field, rows, shape=None) -> Mat:
    m = Mat.from_rows(field, [[scalar_from_json(field, x) for x in row] for row in rows])
    if shape is not None and (m.rows, m.cols) != shape:
        raise InputError(f"matrix must be {shape[0]}x{shape[1]}, got {m.rows}x{m.cols}")
    return m


def space_to_json(b: BraidedSpace):
    return {"field": field_to_json(b.field), "dim": b.dim, "c": mat_to_json(b.c)}


def space_from_json(obj, *, check=True) -> BraidedSpace:
    field = field_from_json(obj["field"])
    dim = obj["dim"]
    if dim > MAX_DIM:
        raise InputError(f"dim {dim} exceeds the limit {MAX_DIM}")
    c = mat_from_json(field, obj["c"], shape=(dim**2, dim**2))
    return BraidedSpace(field, dim, c, check=check)


def algebra_to_json(q: QuadraticLieAlgebra):
    return {"space": space_to_json(q.space), "beta": mat_to_json(q.beta)}


def algebra_from_json(obj, *, check=True) -> QuadraticLieAlgebra:
    space = space_from_json(obj["space"], check=check)
    beta = mat_from_json(space.field, obj["beta"], shape=(space.dim, space.dim**2))
    return QuadraticLieAlgebra(space, beta)


def tensor_elem_to_json(t):
    return [{"word": list(w), "coeff": scalar_to_json(c)} for w, c in t.sorted_terms()]


_SCHEMA = None


def input_schema():
    global _SCHEMA
    if _SCHEMA is None:
        text = resources.files("quadlie.schemas").joinpath("input.schema.json").read_text()
        _SCHEMA = json.loads(text)
    return _SCHEMA


def validate_input(obj):
    """Validate an input document; raises InputError with a pointer path."""
    validator = jsonschema.Draft202012Validator(input_schema())
    errors = sorted(validator.iter_errors(obj), key=lambda e: (len(e.absolute_path), str(e.absolute_path)))
    if errors:
        err = jsonschema.exceptions.best_match(errors)
        pointer = "/" + "/".join(str(p) for p in err.absolute_path)
        raise InputError(f"at {pointer or '/'}: {err.message}")


def load_input(obj, *, check=True):
    """Parse a validated input into a BraidedSpace or QuadraticLieAlgebra."""
    validate_input(obj)
    if "space" in obj:
        return algebra_from_json(obj, check=check)
    return space_from_json(obj, check=check)
