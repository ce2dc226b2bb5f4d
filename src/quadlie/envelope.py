"""Enveloping-algebra presentations and degree-truncated ideal computation.

The two-sided ideal of an inhomogeneous quadratic presentation is
spanned by the monomial sandwiches u r v, taken up to a working degree
N + buffer.  When the relations' leading words have length 2 and their
degree-3 overlaps resolve, the sandwiches of degree <= k span the
ideal's slice at k for every k (G. Bergman's diamond lemma), so the
slices up to N are exact once degree max(N, 3) is in, as are those of a
graded ideal.  Otherwise raising the buffer must leave the dimensions of
the degree slices up to N unchanged (top-degree cancellations can leak
relations into lower degrees).  The certificate is tried in two letter
orders: what it shows does not depend on the order.

Coordinates are ordered with longer words first, so the rows of the
reduced echelon span whose pivot has degree <= k form a canonical basis
of (ideal) intersect T^{<=k}, and normal forms of bounded-degree
elements are canonical coset representatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import accumulate

from .braided import BraidedSpace, MinpolySplit, all_words, h_of_c, require_words
from .brackets import QuadraticLieAlgebra
from .fields import CheckFailed
from .linalg import SparseEchelon, integral
from .tensoralg import (
    SplitTensorElem,
    TensorElem,
    add_up,
    coproduct,
    tensor_elem_from_vector,
)


#: Largest number of words that ideal_truncation indexes (all words of
#: length <= its cap).  The command line holds envelope and primitives to
#: the words of length <= N + buffer + 2: up to degree 9 at buffer 2 on
#: two letters.
MAX_WORDS = 2**14


class Unstabilized(CheckFailed, RuntimeError):
    """Ideal slice dimensions kept changing as the buffer grew."""


class EliminationOrder:
    """Bijection between words of length <= cap and coordinate integers,
    longer words first, tensor-basis order within a length."""

    def __init__(self, n: int, cap: int):
        self.n = n
        self.cap = cap
        self._words = []
        for length in range(cap, -1, -1):
            self._words.extend(all_words(n, length))
        self._index = {w: i for i, w in enumerate(self._words)}
        self.size = len(self._words)

    def coord(self, w):
        return self._index[w]

    def word(self, coord):
        return self._words[coord]

    def degree_of(self, coord):
        return len(self._words[coord])

    def to_coords(self, t: TensorElem):
        return {self._index[w]: c for w, c in t.terms.items()}

    def to_elem(self, space, coords) -> TensorElem:
        return TensorElem(space, {self._words[c]: v for c, v in coords.items()})


class Presentation:
    """A braided space with canonicalized relation generators of degree <= 2."""

    __slots__ = ("space", "relations")

    def __init__(self, space: BraidedSpace, generators):
        self.space = space
        order = EliminationOrder(space.dim, 2)
        ech = SparseEchelon(space.field)
        for g in generators:
            if g.top_degree() > 2:
                raise ValueError("relations must have filtration degree <= 2")
            ech.insert(order.to_coords(g))
        rows = [order.to_elem(space, ech.row(p)) for p in sorted(ech.rows)]
        self.relations = tuple(rows)

    def is_homogeneous_quadratic(self):
        return all(r.degrees() == [2] for r in self.relations)

    def __repr__(self):
        return f"Presentation({len(self.relations)} relations over dim {self.space.dim})"


def uq_relations(q: QuadraticLieAlgebra, split: MinpolySplit) -> Presentation:
    """Generators h(c)(z) - b(z) over the degree-two basis words."""
    space = q.space
    hc = h_of_c(space, split)
    gens = []
    for j in range(space.dim**2):
        quad = tensor_elem_from_vector(space, hc.col(j), 2)
        lin = tensor_elem_from_vector(space, q.beta.col(j), 1)
        gens.append(quad - lin)
    return Presentation(space, gens)


def sq_presentation(space: BraidedSpace) -> Presentation:
    """Degree-two primitives as homogeneous relations (zero bracket case)."""
    gens = [tensor_elem_from_vector(space, v, 2) for v in space.e2().basis]
    return Presentation(space, gens)


def presentation_for(q: QuadraticLieAlgebra, split) -> Presentation:
    """U-presentation when -1 splits off the minimal polynomial, else the
    free algebra (no relations, empty primitive space)."""
    if split is None:
        return Presentation(q.space, [])
    return uq_relations(q, split)


def relation_span_equal(pres: Presentation, expected_term_dicts) -> bool:
    """Compare the canonical relation span against raw word->coeff dicts."""
    space = pres.space
    other = Presentation(space, [TensorElem(space, d) for d in expected_term_dicts])
    return pres.relations == other.relations


@dataclass
class IdealTruncation:
    """Echelonized slices of a two-sided ideal up to degree N."""

    presentation: Presentation
    degree_cap: int
    buffer_used: int
    order: EliminationOrder
    echelon: SparseEchelon
    slice_dims: list  # dim(ideal intersect T^{<=k}) for k = 0..N
    overlaps_resolved: bool  # certified by the diamond lemma in either letter order, not by stabilization
    _nf_cache: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def space(self):
        return self.presentation.space

    def dim_slice(self, k):
        return self.slice_dims[k]

    def slice_basis(self, k):
        """Canonical basis of ideal intersect T^{<=k}, k <= degree cap."""
        return [
            self.order.to_elem(self.space, self.echelon.row(p))
            for p in sorted(self.echelon.rows)
            if self.order.degree_of(p) <= k
        ]

    def nf_word(self, w) -> TensorElem:
        cached = self._nf_cache.get(w)
        if cached is None:
            coords = self.echelon.reduce({self.order.coord(w): 1})
            cached = self.order.to_elem(self.space, coords)
            self._nf_cache[w] = cached
        return cached

    def nf(self, t: TensorElem) -> TensorElem:
        terms = ((w2, c * x) for w, c in t.terms.items() for w2, x in self.nf_word(w).terms.items())
        return TensorElem(self.space, add_up(terms))

    def nf_split(self, s: SplitTensorElem) -> SplitTensorElem:
        def terms():
            for (u, v), c in s.terms.items():
                right = self.nf_word(v).terms.items()
                for wu, cu in self.nf_word(u).terms.items():
                    cu *= c
                    for wv, cv in right:
                        yield (wu, wv), cu * cv

        return SplitTensorElem(self.space, add_up(terms()))

    def quotient_words(self, k):
        """Coset-representative words of degree <= k (non-pivot coordinates)."""
        out = []
        for length in range(0, k + 1):
            for w in all_words(self.space.dim, length):
                if self.order.coord(w) not in self.echelon.rows:
                    out.append(w)
        return out


def _sandwiches(order, t, n, lengths):
    """Coordinate dicts of u t v for all words u of length a and v of
    length b, for the pairs (a, b) in lengths, scaled to integers (by the
    lcm of t's denominators over Q)."""
    terms = list(zip(t.terms, integral(t.terms.values())[0]))
    coord = order.coord
    for a, b in lengths:
        vs = all_words(n, b)
        for u in all_words(n, a):
            for v in vs:
                yield {coord(u + w + v): c for w, c in terms}


def _insert_sandwiches(ech, order, n, rels, degree):
    """Insert all u r v with |u| + top(r) + |v| == degree, r in rels."""
    for r in rels:
        pad = degree - r.top_degree()
        for vec in _sandwiches(order, r, n, ((a, pad - a) for a in range(pad + 1))):
            ech.insert(vec)


def _overlaps_resolve(order, ech, rels):
    """Bergman's diamond-lemma certificate on an echelon holding every
    sandwich of degree <= 3: each relation's pivot (its leading word in
    the monomial order of ``order``) has length 2, and each pivot of
    degree <= 3 contains one of those leading words as a factor.  The
    reducible words are always pivots, so then every overlap a b c
    resolves, and the sandwiches of degree <= k span the whole ideal
    intersect T^{<=k} for every k.  That conclusion does not mention the
    order, so it holds once the test passes in any one order."""
    leads = {order.word(min(order.to_coords(r))) for r in rels}
    if any(len(w) != 2 for w in leads):
        return False
    return all(w[:2] in leads or w[1:] in leads for w in map(order.word, ech.rows) if len(w) <= 3)


def _reversed_overlaps_resolve(pres: Presentation):
    """``_overlaps_resolve`` in the reversed letter order, on the relations
    relabelled by x_i -> x_{n+1-i}.  The relabelling is a filtered
    automorphism of T(V) that maps the sandwich spans of the relations
    onto those of the relabelled ones, so when it holds, the sandwiches of
    pres of degree <= k span its ideal's slice at degree <= k for every k."""
    space = pres.space
    n = space.dim
    relabelled = (TensorElem(space, {tuple(n + 1 - x for x in w): c for w, c in r.terms.items()}) for r in pres.relations)
    rels = Presentation(space, relabelled).relations
    order = EliminationOrder(n, 3)
    ech = SparseEchelon(space.field)
    for d in range(4):
        _insert_sandwiches(ech, order, n, rels, d)
    return _overlaps_resolve(order, ech, rels)


def ideal_truncation(pres: Presentation, N: int, buffer: int = 2) -> IdealTruncation:
    """Certified slices of the two-sided ideal up to degree N.

    Inserts the sandwiches degree by degree up to the working degree
    N + buffer.  Once degree max(N, 3) <= N + buffer is in, the slices up
    to N are final if the relations' overlaps resolve
    (``_overlaps_resolve``, in the standard letter order or, for a
    presentation that is not graded, in the reversed one), or if the
    presentation is graded (a sandwich of degree d lies in T^d, so higher
    degrees never reach them): it stops there and reports the buffer as
    used.  Otherwise it keeps raising the
    buffer (at most twice) until the slice dimensions up to N stop
    changing; raises Unstabilized if they never do.
    """
    if N < 0 or buffer < 1:
        raise ValueError("need N >= 0 and buffer >= 1")
    max_extra = 2
    graded = pres.is_homogeneous_quadratic()
    cap = max(N, 3) if graded else N + buffer + max_extra
    n = pres.space.dim
    require_words(n, cap, MAX_WORDS, "ideal truncation")
    order = EliminationOrder(n, cap)
    ech = SparseEchelon(pres.space.field)
    rels = pres.relations
    resolved = False
    for d in range(0, N + buffer + 1):
        _insert_sandwiches(ech, order, n, rels, d)
        if d == max(N, 3):
            resolved = _overlaps_resolve(order, ech, rels)
            resolved = resolved or (not graded and _reversed_overlaps_resolve(pres))
            if resolved or graded:
                break

    def dims():
        """dim(ideal intersect T^{<=k}) for k = 0..N."""
        counts = [0] * (N + 1)
        for p in ech.rows:
            if (deg := order.degree_of(p)) <= N:
                counts[deg] += 1
        return list(accumulate(counts))

    current = dims()
    used = buffer
    for extra in range(1, max_extra + 1):
        if resolved or graded:
            break  # exact slices
        _insert_sandwiches(ech, order, n, rels, N + buffer + extra)
        nxt = dims()
        if nxt == current:
            used = buffer + extra - 1
            break
        current = nxt
        if extra == max_extra:
            raise Unstabilized(
                f"ideal slice dimensions kept changing up to buffer {buffer + max_extra}"
            )
    return IdealTruncation(
        presentation=pres,
        degree_cap=N,
        buffer_used=used,
        order=order,
        echelon=ech,
        slice_dims=current,
        overlaps_resolved=resolved,
    )


def filtration_dims(pres: Presentation, N: int, trunc=None):
    """Dimensions of the standard-filtration layers of the quotient.

    Entry k is dim of (image of T^{<=k}) modulo (image of T^{<=k-1}): the
    n^k words of length k less what the ideal slice gains at k.
    """
    if trunc is None:
        trunc = ideal_truncation(pres, N)
    n = pres.space.dim
    slices = [0] + [trunc.dim_slice(k) for k in range(N + 1)]
    return [n**k - (slices[k + 1] - slices[k]) for k in range(N + 1)]


def sq_graded_dims(space: BraidedSpace, N: int):
    """Graded dimensions of the quadratic symmetric algebra: the
    filtration of the zero bracket's enveloping algebra, whose ideal is
    graded."""
    return filtration_dims(sq_presentation(space), N)


def bg_conditions(pres: Presentation):
    """The two PBW-type span conditions for an inhomogeneous quadratic
    presentation P: (I) P meets T^{<=1} trivially; (J) sandwiching by
    T^{<=1} on both sides creates nothing new in T^{<=2}.

    The relations are a reduced echelon basis, so (I) says that each has
    top degree 2, and (J) that the sandwiches' rows of pivot degree <= 2,
    which span a space containing P, are as many as the relations."""
    space = pres.space
    n = space.dim
    order = EliminationOrder(n, 4)
    big = SparseEchelon(space.field)
    for r in pres.relations:
        for vec in _sandwiches(order, r, n, [(0, 0), (0, 1), (1, 0), (1, 1)]):
            big.insert(vec)
    cond_i = all(r.top_degree() == 2 for r in pres.relations)
    cond_j = sum(order.degree_of(p) <= 2 for p in big.rows) == len(pres.relations)
    return {"I": cond_i, "J": cond_j}


def pbw_check(pres: Presentation, N: int) -> bool:
    """Filtration layer dimensions match the graded dimensions of the
    quadratic symmetric algebra up to degree N."""
    return filtration_dims(pres, N) == sq_graded_dims(pres.space, N)


def coproduct_descends(trunc: IdealTruncation) -> bool:
    """The coproduct of every relation lies in ideal (x) T + T (x) ideal,
    checked at truncation level via two-sided normal forms."""
    for r in trunc.presentation.relations:
        if not trunc.nf_split(coproduct(r)).is_zero():
            return False
    return True
