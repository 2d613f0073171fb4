"""Module presentations and minimal free resolutions over R = Q/I.

Over an Artinian graded R the kernel of a homogeneous matrix is computed
strand by strand with k-linear algebra, trimming generators degree by
degree, which keeps the work proportional to the (sparse) strand data.  The
output is a minimal resolution: every differential entry lies in the
maximal ideal, and it carries krank(syz_i), read off the strands that
picked syz_i's generators (krank.syzygy_krank).  The lift-to-Q Groebner
kernels and the resolution over Q that this is checked against live in the
tests, in tests/support/oracle.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import GradedFreeComplex
from .errors import InputError, InternalCheckError, check_rank
from .groebner import Ideal, Strand
from .krank import syzygy_krank
from .linalg import kernel_basis
from .matrices import FreeModuleElement, PolyMatrix
from .ring import PolyRing


@dataclass
class ModulePresentation:
    """Finitely presented graded module over R = Q/I (I = 0 presents over Q).

    relations are homogeneous columns in Q^ambient, kept in normal form
    modulo I coordinatewise.
    """

    ring: PolyRing
    quotient: Ideal
    gen_degrees: list
    relations: list = field(default_factory=list)

    def __post_init__(self):
        red = self.quotient.normal_form
        cleaned = []
        for v in self.relations:
            w = v.map_coords(red)
            if w.coords:
                try:
                    w.degree(self.gen_degrees)
                except ValueError as e:
                    raise InputError(f"relation {v}: {e}") from None
                cleaned.append(w)
        self.relations = cleaned

    @classmethod
    def cyclic(cls, quotient: Ideal, extra_gens) -> "ModulePresentation":
        """R/(extra)R as an R-module."""
        ring = quotient.ring
        rels = [FreeModuleElement(ring, {0: g}) for g in extra_gens if g]
        return cls(ring, quotient, [0], rels)

    @classmethod
    def residue_field(cls, quotient: Ideal) -> "ModulePresentation":
        return cls.cyclic(quotient, quotient.ring.maximal_ideal_gens())

    @property
    def ambient_rank(self) -> int:
        return len(self.gen_degrees)

    def dims(self, through: int) -> list:
        """k-dimensions of the module's graded pieces M_d for d = 0..through."""
        return self._dims(range(through + 1))

    def is_zero(self) -> bool:
        """M is generated in its generator degrees, so M = 0 iff M_d = 0 in each."""
        return not any(self._dims(set(self.gen_degrees)))

    def _dims(self, degrees) -> list:
        table = self.quotient.table()
        rels = [(v, v.degree(self.gen_degrees)) for v in self.relations]
        out = []
        for d in degrees:
            strand = Strand(table, self.gen_degrees, d)
            out.append(len(strand) - strand.span(rels).rank)
        return out


# ---------------------------------------------------------------------------
# minimal generators of submodules
# ---------------------------------------------------------------------------


def minimal_module_generators(elements, gen_degrees, quotient: Ideal, extra_span=None,
                              spans: dict | None = None):
    """Greedy minimal generating subset over R, degree by degree.

    Elements, and those of extra_span, must be homogeneous columns in
    R^ambient in normal form; none is reduced here (ModulePresentation
    reduces its relations, and the other callers work over Q).  The
    selection order is (degree, insertion order), so results are stable.

    extra_span holds (element, degree) pairs quotiented out in their own
    degree only: the strand of degree d is spanned by m * elements with
    deg m >= 1 and the extra elements of degree d, with no multiples of
    them.  A caller that quotients out a submodule N passes N's elements
    of every degree it needs.  With elements the generators of the cycles
    Z and extra_span the boundaries B, this picks homology generators:
    B is inside Z, so m * b with deg m >= 1 lies in m * Z already, and the
    span at d is (m * Z + B)_d.

    spans, when given, receives for each degree d of an element the triple
    (strand, echelon, vectors): the strand of degree d, the echelon of
    m * elements + extra_span in it as it stood before the greedy picks, and
    the strand vectors of the elements of degree d.  The picks go into a
    copy, so no chosen element is in the kept echelon.
    """
    table = quotient.table()
    elems = [(w, w.degree(gen_degrees)) for w in elements if w.coords]
    if not elems:
        return []
    extra = {}
    for w, dg in extra_span or ():
        if w.coords:
            extra.setdefault(dg, []).append((w, dg))
    chosen = []
    for d in sorted({dg for _, dg in elems}):
        strand = Strand(table, gen_degrees, d)
        ech = strand.span(extra.get(d, ()), 0, strand.span(elems, 1))
        here = [(w, strand.vector(w.coords)) for w, dg in elems if dg == d]
        if spans is not None:
            spans[d] = (strand, ech, [vec for _, vec in here])
            ech = ech.copy()
        for w, vec in here:
            if ech.insert(vec)[0] is not None:
                chosen.append(w)
    return chosen


# ---------------------------------------------------------------------------
# kernels over R
# ---------------------------------------------------------------------------


def kernel_gens_over_R(matrix: PolyMatrix, quotient: Ideal):
    """Minimal generators of K = ker(matrix) over Artinian R, strand by
    strand, and {d: (strand, echelon of (mK)_d before the picks at d, basis
    of K_d)} over the d with K_d != 0, as minimal_module_generators(spans=)
    records them; the generators below d generate K_(<d)."""
    table = quotient.table()
    if not matrix.col_degrees:
        return [], {}
    picked, strands = [], {}  # picked: (element, degree)
    for d in range(min(matrix.col_degrees), max(matrix.col_degrees) + table.top + 1):
        src, cols = table.matrix_strand(matrix, d)
        _, kern = kernel_basis(cols, matrix.ring.p)
        if not kern:
            continue
        span = src.span(picked, 1)
        strands[d] = (src, span, kern)
        span = span.copy()
        for kv in kern:
            if span.insert(kv)[0] is not None:
                picked.append((src.element(kv), d))
    return [g for g, _ in picked], strands


class Resolution(GradedFreeComplex):
    """A minimal resolution over R; kranks[i - 1] = krank(syz_i), 1 <= i <= top()."""

    __slots__ = ("kranks",)


def resolve_over_R(pres: ModulePresentation, up_to: int) -> Resolution:
    """Minimal free resolution of the presented module over R, to degree
    up_to; each syzygy's k-rank is read off the strands that picked its
    generators, which are dropped before the next kernel is taken."""
    quotient = pres.quotient
    ring = pres.ring
    strands = {}
    current = minimal_module_generators(pres.relations, pres.gen_degrees, quotient, spans=strands)
    degrees = {0: list(pres.gen_degrees)}
    diffs = {}
    kranks = []
    prev_degrees = pres.gen_degrees
    total = len(pres.gen_degrees)
    for n in range(1, up_to + 1):
        col_degs = [v.degree(prev_degrees) for v in current]
        total += len(col_degs)
        check_rank(total, f"resolution over R through degree {n}")
        if not current:
            break
        degrees[n] = col_degs
        diffs[n] = mat = PolyMatrix.from_columns(ring, prev_degrees, current, col_degs)
        kranks.append(syzygy_krank(strands, col_degs))
        del strands
        if n < up_to:
            prev_degrees = col_degs
            current, strands = kernel_gens_over_R(mat, quotient)
    cx = Resolution(ring, degrees, diffs, quotient)
    cx.kranks = kranks
    if not cx.is_minimal():
        raise InternalCheckError("resolution over R is not minimal")
    return cx
