"""Classification of two-dimensional brackets with one-dimensional image.

canonical_form drives the case-by-case normalization onto the canonical
table: pick a basis vector spanning Im(b), read the constrained matrix
patterns forced by the axioms, branch on the surviving free entries, and
accumulate the explicit change of basis.  Branches that the axioms rule
out are reachable error states, so feeding a non-verified structure in
fails loudly instead of misclassifying.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .braided import BraidedSpace, mat_tensor, split_minpoly
from .brackets import QuadraticLieAlgebra, verify_lifted
from .fields import CheckFailed
from .jsonio import mat_to_json, scalar_to_json
from .linalg import Mat, column_space
from .table import row_instance


class PreconditionViolated(ValueError):
    """Input outside the scope of this classification."""


class InternalContradiction(CheckFailed, RuntimeError):
    """An axiom-eliminated branch was reached: the input was corrupt."""


class UnsupportedField(ValueError):
    """Exhaustive search requested over an infinite field."""


def conjugate(q: QuadraticLieAlgebra, alpha: Mat) -> QuadraticLieAlgebra:
    """Transport the structure along the coordinate change alpha."""
    field = q.field
    ainv = alpha.inverse()
    t = mat_tensor(field, alpha, alpha)
    tinv = mat_tensor(field, ainv, ainv)
    c2 = t @ q.space.c @ tinv
    b2 = alpha @ q.beta @ tinv
    return QuadraticLieAlgebra(BraidedSpace(field, q.space.dim, c2, check=False), b2)


@dataclass(frozen=True)
class CanonicalFormResult:
    row: int
    gamma: object  # Scalar or None
    change_of_basis: Mat
    gamma_square_class_note: bool

    def as_dict(self):
        return {
            "row": self.row,
            "gamma": None if self.gamma is None else scalar_to_json(self.gamma),
            "change_of_basis": mat_to_json(self.change_of_basis),
            "gamma_square_class_note": self.gamma_square_class_note,
        }


class _Pipeline:
    def __init__(self, q):
        self.field = q.field
        self.cur = q
        self.acc = Mat.identity(q.field, 2)

    def apply(self, rows):
        alpha = Mat.from_rows(self.field, rows)
        self.cur = conjugate(self.cur, alpha)
        self.acc = alpha @ self.acc

    def scale_bracket(self, lam):
        """Divide the bracket by lam via the scalar coordinate change."""
        self.apply([[lam, 0], [0, lam]])

    def c(self, i, j):
        return self.field(self.cur.space.c[i, j])

    def b(self, j):
        return self.field(self.cur.beta[0, j])

    def check(self, cond, what):
        if not cond:
            raise InternalContradiction(f"axiom-forced pattern failed: {what}")


def _sqrt_normalize(pipe, entry_col, allow_zero):
    """If the remaining parameter is a nonzero square, rescale it to 1."""
    field = pipe.field
    g = pipe.c(0, entry_col)
    if not g:
        if not allow_zero:
            raise InternalContradiction("vanishing parameter in a nonzero-parameter case")
        return
    if g == field.one or not g.is_square():
        return
    s = g.sqrt()
    pipe.apply([[s.inverse(), 0], [0, 1]])


def canonical_form(q: QuadraticLieAlgebra, *, skip_verification: bool = False) -> CanonicalFormResult:
    """Normalize a verified two-dimensional structure with rank-one bracket
    onto its canonical table row, returning the accumulated basis change.

    With skip_verification the axiom gate is bypassed; corrupt inputs then
    surface as InternalContradiction when an axiom-eliminated branch or a
    forced matrix pattern is hit.
    """
    field = q.field
    field.require_odd_char()
    if q.space.dim != 2:
        raise PreconditionViolated("classification covers dimension 2 only")
    img = column_space(q.beta)
    if img.dim == 0:
        raise PreconditionViolated("zero bracket: nothing to classify")
    if img.dim == 2:
        raise PreconditionViolated(
            "bracket image is two-dimensional; route to the appendix checks"
        )
    if not skip_verification and not verify_lifted(q).ok:
        raise PreconditionViolated("input is not a verified quadratic Lie algebra")
    if split_minpoly(q.space) is None:
        raise PreconditionViolated("-1 is not a root of the braiding's minimal polynomial")

    pipe = _Pipeline(q)

    # Choose x1 spanning Im(b) and complete to a basis.
    y = img.basis[0]
    piv = 0 if y[0] else 1
    other = 1 - piv
    s_mat = Mat(field, [[y[i], int(i == other)] for i in range(2)])
    pipe.apply(s_mat.inverse().a)

    # Categoricity of Im(b) and the rank-one corollary force this shape.
    zero_c = [(1, 0), (2, 0), (3, 0), (1, 1), (3, 1), (2, 2), (3, 2)]
    pipe.check(all(not pipe.c(i, j) for i, j in zero_c), "braiding zero pattern")
    pipe.check(all(not x for x in pipe.cur.beta.a[1]), "bracket image must be K x1")
    pipe.check(not pipe.b(0), "bracket of x1 with x1 must vanish")

    if pipe.c(0, 0):
        row = _case_nonzero_corner(pipe)
    else:
        row = _case_zero_corner(pipe)

    gamma = _final_gamma(pipe, row)
    target = row_instance(row, field, gamma)

    # Residual bracket rescaling (the structure-preserving scalar change).
    # (the canonical brackets are nonzero in their first row only)
    lam = next((pipe.b(j) / field(t) for j, t in enumerate(target.beta.a[0]) if t), None)
    pipe.check(lam is not None and bool(lam), "bracket degenerated during normalization")
    if lam != field.one:
        pipe.scale_bracket(lam)
    pipe.check(pipe.cur.space.c == target.space.c, "braiding does not match its canonical form")
    pipe.check(pipe.cur.beta == target.beta, "bracket does not match its canonical form")

    note = row in (3, 4, 8) and gamma is not None and bool(gamma) and gamma != field.one
    return CanonicalFormResult(
        row=row,
        gamma=gamma,
        change_of_basis=pipe.acc,
        gamma_square_class_note=note,
    )


def _case_nonzero_corner(pipe):
    """Branch with c(x1 (x) x1) proportional to x1 (x) x1, nonzero scalar."""
    field = pipe.field
    pipe.check(pipe.b(1) + pipe.b(2) == field.zero, "antisymmetric off-diagonal bracket forced")
    if not pipe.b(1):
        # Bracket concentrated on x2 (x) x2: the split-generator row.
        b22 = pipe.b(3)
        pipe.check(bool(b22), "rank-one bracket with no surviving entry")
        pipe.scale_bracket(b22)
        s = pipe.c(1, 3)
        pipe.check(pipe.c(2, 3) == s, "the two mixed columns must agree")
        expected = [
            (0, 0, field.one),
            (0, 1, field.zero),
            (0, 2, field.zero),
            (1, 2, field.one),
            (2, 1, field.one),
            (3, 3, -field.one),
        ]
        for i, j, v in expected:
            pipe.check(pipe.c(i, j) == v, f"forced braiding entry ({i},{j})")
        pipe.apply([[1, s / field(2)], [0, 1]])
        _sqrt_normalize(pipe, 3, allow_zero=True)
        return 4

    pipe.scale_bracket(pipe.b(1))
    for i, j, v in [(1, 2, field.one), (2, 1, field.one), (1, 3, field.zero),
                    (2, 3, field.zero), (3, 3, field.one)]:
        pipe.check(pipe.c(i, j) == v, f"forced braiding entry ({i},{j})")
    pipe.check(pipe.b(2) == -field.one and pipe.b(3) == field.zero, "bracket row shape")
    ytop = pipe.c(0, 1)
    wtop = pipe.c(0, 2)
    if ytop != wtop:
        pipe.check(pipe.c(0, 0) == field.one, "corner forced to 1")
        pipe.check(pipe.c(0, 3) == field.zero, "top-right forced to 0")
        pipe.check(wtop == -ytop and bool(ytop), "off-pair forced antisymmetric")
        pipe.apply([[ytop.inverse(), 0], [0, 1]])
        return 2
    if pipe.c(0, 0) == field.one:
        pipe.check(ytop == field.zero, "mixing entries vanish in the unipotent branch")
        if not pipe.c(0, 3):
            return 1
        _sqrt_normalize(pipe, 3, allow_zero=False)
        return 8
    if pipe.c(0, 0) == -field.one:
        pipe.apply([[1, -ytop / field(2)], [0, 1]])
        pipe.check(pipe.c(0, 1) == field.zero and pipe.c(0, 2) == field.zero, "shear cleanup")
        _sqrt_normalize(pipe, 3, allow_zero=True)
        return 3
    x = pipe.c(0, 0)
    pipe.check(pipe.c(0, 3) == ytop * ytop / (x - field.one), "top-right pinned by Yang-Baxter")
    pipe.apply([[x - field.one, ytop], [0, 1]])
    pipe.check(pipe.c(0, 0) == x, "diagonal parameter preserved")
    return 7


def _case_zero_corner(pipe):
    """Branch with c(x1 (x) x1) = 0."""
    field = pipe.field
    pipe.check((not pipe.b(1)) == (not pipe.b(2)), "off-diagonal entries vanish together")
    if pipe.c(3, 3) != field.one:
        raise InternalContradiction(
            "eliminated branch reached: zero corner with c(x2 (x) x2) not fixing x2 (x) x2"
        )
    if pipe.b(3):
        pipe.scale_bracket(pipe.b(3))
        b21, b12 = pipe.b(1), pipe.b(2)
        pipe.check(bool(b21) and bool(b12), "off-diagonal bracket entries forced nonzero")
        if b12 == -b21:
            raise InternalContradiction(
                "eliminated branch reached: antisymmetric pair with unit diagonal bracket"
            )
        pipe.apply([[b12 * b21 * (b12 + b21), b12 * b21], [0, 1]])
        pipe.check(not pipe.b(3), "shear must clear the diagonal bracket entry")
    b21 = pipe.b(1)
    pipe.check(bool(b21), "rank-one bracket needs an off-diagonal entry here")
    pipe.scale_bracket(b21)
    b12 = pipe.b(2)
    if b12 == -field.one:
        for i, j, v in [(2, 1, field.one), (1, 2, field.one), (1, 3, field.zero), (2, 3, field.zero)]:
            pipe.check(pipe.c(i, j) == v, f"forced braiding entry ({i},{j})")
        y, w = pipe.c(0, 1), pipe.c(0, 2)
        pipe.check(pipe.c(0, 3) == -y * w, "top-right pinned by Yang-Baxter")
        if w == y:
            pipe.apply([[1, -y], [0, 1]])
            return 7
        pipe.apply([[(y - w).inverse(), -w / (y - w)], [0, 1]])
        return 5
    pipe.check(bool(b12), "off-diagonal entries vanish together")
    return 6


def _final_gamma(pipe, row):
    field = pipe.field
    if row in (1, 2, 5):
        return None
    if row in (3, 4, 8):
        return pipe.c(0, 3)
    if row == 7:
        return pipe.c(0, 0)
    if row == 6:
        return -pipe.b(2)
    raise AssertionError(row)


def iso_bruteforce(a: QuadraticLieAlgebra, b: QuadraticLieAlgebra, mode: str):
    """Search for an explicit isomorphism transporting a onto b.

    finite_exhaustive enumerates every invertible coordinate change over a
    prime field in lexicographic entry order; rational_structured composes
    the two canonical forms with the admissible parameter rescaling over Q.
    Returns the verified matrix or None.
    """
    if a.field is not b.field:
        raise ValueError("structures over different fields")
    if a.space.dim != 2 or b.space.dim != 2:
        raise ValueError("brute-force search covers dimension 2 only")
    field = a.field
    if mode == "finite_exhaustive":
        if field.is_rationals:
            raise UnsupportedField("exhaustive enumeration needs a finite field")
        p = field.p
        for a11, a12, a21, a22 in product(range(p), repeat=4):
            if (a11 * a22 - a12 * a21) % p == 0:
                continue
            alpha = Mat.from_rows(field, [[a11, a12], [a21, a22]])
            ainv = alpha.inverse()
            tinv = mat_tensor(field, ainv, ainv)
            # the bracket transform is the cheaper mismatch filter
            if alpha @ a.beta @ tinv != b.beta:
                continue
            t = mat_tensor(field, alpha, alpha)
            if t @ a.space.c @ tinv == b.space.c:
                return alpha
        return None
    if mode == "rational_structured":
        ra = canonical_form(a)
        rb = canonical_form(b)
        if ra.row != rb.row:
            return None
        middle = _structured_middle(field, ra.row, ra.gamma, rb.gamma)
        if middle is None:
            return None
        alpha = rb.change_of_basis.inverse() @ middle @ ra.change_of_basis
        cand = conjugate(a, alpha)
        if cand.space.c == b.space.c and cand.beta == b.beta:
            return alpha
        return None
    raise ValueError(f"unknown mode {mode!r}")


def _structured_middle(field, row, ga, gb):
    """Coordinate change between two canonical instances of one row."""
    eye = Mat.identity(field, 2)
    if ga is None and gb is None:
        return eye
    if ga == gb:
        return eye
    if row in (5, 6, 7):
        return None  # parameter is an exact invariant
    if not ga or not gb:
        return None
    ratio = gb / ga
    if not ratio.is_square():
        return None
    s = ratio.sqrt()
    if row in (3, 8):
        return Mat.from_rows(field, [[s, 0], [0, 1]])
    if row == 4:
        return Mat.from_rows(field, [[s * s, 0], [0, s]])
    return None
