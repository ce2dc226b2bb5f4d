"""JSON encoding of the library's values and validated input.

Rationals serialize as bare integers or "p/q" strings; prime-field
elements as integers in [0, p).  Matrices are row-major lists of rows.

``validate_input`` checks a document directly against the contract in
``schemas/input.schema.json`` (the tests use that file, through
jsonschema, as the oracle).  It differs from an ECMA-262 reading of the
schema in one way, on purpose: a float is never an integer here, so
``2.0`` is rejected as a dim or a scalar.

The schema's two patterns, matched against the whole string, are the only
grammar of field and scalar literals: ``field_from_json`` and
``scalar_from_json`` hold every literal to them, and so do the command
line's ``--field`` and ``--gamma`` (through ``scalar_from_arg``).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .braided import BraidedSpace
from .brackets import QuadraticLieAlgebra
from .fields import Field, Scalar
from .linalg import Mat


#: Largest accepted dimension of V: loading checks the braid relation, and
#: ``verify`` on a dense c over Q at dim 6 (1,289 of 1,296 entries nonzero)
#: takes about 0.7-1.1 s as a command, and peaks at about 18 MB RSS on one
#: with 1,206 (2-CPU x86-64 VM, Python 3.11).
MAX_DIM = 6


# the schema's patterns, matched against the whole string
_SCALAR = re.compile(r"^-?[0-9]+(/[1-9][0-9]*)?$")
_FIELD = re.compile(r"^(Q|GF\(?[0-9]+\)?)$")
# a command-line scalar read as a JSON integer
_INTEGER = re.compile(r"-?[0-9]+")


class InputError(ValueError):
    """Malformed input document; message carries a JSON-pointer path."""


def scalar_to_json(s):
    """A Scalar or a raw value as an integer, or a "p/q" string."""
    v = s.v if isinstance(s, Scalar) else s
    if v.denominator == 1:
        return int(v)
    return f"{v.numerator}/{v.denominator}"


def scalar_from_json(field: Field, obj) -> Scalar:
    if type(obj) is int:  # not a bool
        if not field.is_rationals and not 0 <= obj < field.p:
            raise InputError(f"prime-field scalars must lie in [0, {field.p}), got {obj}")
        return field(obj)
    if not isinstance(obj, str) or not _SCALAR.fullmatch(obj):
        raise InputError(f"bad scalar {obj!r}")
    if not field.is_rationals:
        raise InputError(f"prime-field scalars must be integers, got {obj!r}")
    return field(Fraction(obj))


def scalar_from_arg(field: Field, text: str) -> Scalar:
    """A command-line scalar: digits with an optional sign are that
    integer, anything else is read as a JSON string."""
    return scalar_from_json(field, int(text) if _INTEGER.fullmatch(text) else text)


def field_to_json(f: Field) -> str:
    return "Q" if f.is_rationals else f"GF({f.p})"


def field_from_json(s) -> Field:
    if not isinstance(s, str) or not _FIELD.fullmatch(s):
        raise InputError(f"bad field {s!r}")
    if s == "Q":
        return Field()
    try:
        return Field(int(s[2:].strip("()")))
    except ValueError as exc:  # not a prime below 2**64
        raise InputError(f"bad field {s!r}: {exc}") from exc


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


_SPACE_KEYS = frozenset(("field", "dim", "c"))
_ALGEBRA_KEYS = frozenset(("space", "beta"))


def _fail(pointer, message):
    raise InputError(f"at {pointer or '/'}: {message}")


def _keys(obj):
    return sorted(obj, key=str) if isinstance(obj, dict) else type(obj).__name__


def _check_matrix(m, pointer):
    if not isinstance(m, list) or not m:
        _fail(pointer, f"expected a non-empty array of rows, got {m!r}")
    for i, row in enumerate(m):
        if not isinstance(row, list) or not row:
            _fail(f"{pointer}/{i}", f"expected a non-empty array of scalars, got {row!r}")
        for j, x in enumerate(row):
            if not (type(x) is int or isinstance(x, str) and _SCALAR.fullmatch(x)):
                _fail(f"{pointer}/{i}/{j}", f'{x!r} is not an integer or a "p/q" string')


def _check_space(obj, pointer):
    if not isinstance(obj, dict) or obj.keys() != _SPACE_KEYS:
        _fail(pointer, f"expected the keys ['c', 'dim', 'field'], got {_keys(obj)}")
    field, dim = obj["field"], obj["dim"]
    if not isinstance(field, str) or not _FIELD.fullmatch(field):
        _fail(f"{pointer}/field", f'{field!r} is not "Q" or "GF(p)"')
    if type(dim) is not int or dim < 1:  # not a bool, not a float
        _fail(f"{pointer}/dim", f"{dim!r} is not an integer of at least 1")
    _check_matrix(obj["c"], f"{pointer}/c")


def validate_input(obj):
    """Check an input document against ``schemas/input.schema.json``;
    raises InputError with a JSON-pointer path."""
    if isinstance(obj, dict) and obj.keys() == _SPACE_KEYS:
        _check_space(obj, "")
    elif isinstance(obj, dict) and obj.keys() == _ALGEBRA_KEYS:
        _check_space(obj["space"], "/space")
        _check_matrix(obj["beta"], "/beta")
    else:
        _fail("", f"expected the keys ['c', 'dim', 'field'] or ['beta', 'space'], got {_keys(obj)}")


def load_input(obj, *, check=True):
    """Parse a validated input into a BraidedSpace or QuadraticLieAlgebra."""
    validate_input(obj)
    if "space" in obj:
        return algebra_from_json(obj, check=check)
    return space_from_json(obj, check=check)
