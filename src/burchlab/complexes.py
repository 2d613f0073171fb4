"""Chain complexes of graded free modules, over Q or over R = Q/I.

A complex stores per homological degree the list of internal basis degrees
and the differential as a PolyMatrix.  Complexes over R carry the quotient
ideal; their entries are kept in normal form and their graded strands use
the standard monomials of R as coefficient bases.

A complex given by basis keys and the boundary of each key (Taylor, Tate,
semifree, bar, minimalized) is assembled by keyed_complex.

Exactness is checked two ways: over Q by a Groebner argument
(ker(d_n) <= im(d_{n+1}) as submodules), over Artinian R strand by strand
with k-linear algebra.
"""

from __future__ import annotations

from .errors import InputError, InternalCheckError
from .groebner import Ideal, SubmoduleBasis, syzygies_of
from .linalg import rank_of
from .matrices import PolyMatrix
from .ring import PolyRing


def keyed_complex(ring: PolyRing, basis: dict, internal_degree, image, quotient: Ideal | None = None):
    """The free complex on basis keys, and the position of each key.

    basis maps each degree n to its keys, in the order of their positions;
    internal_degree(n, key) is a key's degree label and image(n, key) its
    boundary, {key of degree n - 1: Polynomial}, with nonzero entries.
    Returns (GradedFreeComplex, positions), positions[n] = {key: index}.
    Column j of d_n lists the image of basis[n][j] in the image's own
    order; a key of an image missing from basis[n - 1] raises
    InternalCheckError.
    """
    positions = {n: {key: t for t, key in enumerate(keys)} for n, keys in basis.items()}
    degrees = {n: [internal_degree(n, key) for key in keys] for n, keys in basis.items()}
    diffs = {}
    for n, keys in basis.items():
        if n == 0 or not keys:
            continue
        target = positions.get(n - 1, {})
        mat = PolyMatrix(ring, degrees.get(n - 1, []), degrees[n])
        for j, key in enumerate(keys):
            img = image(n, key)
            try:
                col = {target[k]: f for k, f in img.items()}
            except KeyError as missing:
                raise InternalCheckError(f"boundary key {missing.args[0]} of {key} is missing "
                                         f"at degree {n - 1}") from None
            if col:
                mat.columns[j] = col
        diffs[n] = mat
    return GradedFreeComplex(ring, degrees, diffs, quotient), positions


class GradedFreeComplex:
    """Nonnegatively graded complex of free modules with homogeneous differentials."""

    __slots__ = ("ring", "degrees", "diffs", "quotient")

    def __init__(self, ring: PolyRing, degrees: dict, diffs: dict, quotient: Ideal | None = None):
        self.ring = ring
        self.degrees = {n: list(ds) for n, ds in degrees.items() if ds}
        self.diffs = diffs  # n -> PolyMatrix: C_n -> C_{n-1}
        self.quotient = quotient

    def top(self) -> int:
        return max(self.degrees, default=-1)

    def rank(self, n: int) -> int:
        return len(self.degrees.get(n, []))

    def basis_degrees(self, n: int):
        return self.degrees.get(n, [])

    def diff(self, n: int) -> PolyMatrix:
        m = self.diffs.get(n)
        if m is None:
            return PolyMatrix(self.ring, self.degrees.get(n - 1, []), self.degrees.get(n, []))
        return m

    def reduce_poly(self, f):
        return self.quotient.normal_form(f) if self.quotient is not None else f

    def rtable(self):
        """The RTable of R = Q/I over a quotient, None over Q; `PolyMatrix.compose`
        multiplies in R with it."""
        return self.quotient.table() if self.quotient is not None else None

    # -- checks ---------------------------------------------------------------

    def check_homogeneous(self):
        for n in sorted(self.diffs):
            self.diff(n).check_homogeneous()

    def check_dd_zero(self, through: int | None = None):
        top = self.top() if through is None else through
        table = self.rtable()
        for n in range(2, top + 1):
            if self.rank(n) == 0:
                continue
            comp = self.diff(n - 1).compose(self.diff(n), table)
            if not comp.is_zero():
                raise InternalCheckError(f"d_{n-1} o d_{n} != 0")

    # -- strands ---------------------------------------------------------------

    def strand_columns(self, n: int, d: int):
        """Columns of the strand of d_n at internal degree d, as F_p vectors,
        one per basis element of the source strand."""
        return self.quotient.table().matrix_strand(self.diff(n), d)[1]

    def internal_degree_range(self, n: int):
        degs = self.basis_degrees(n)
        if not degs:
            return []
        lo = min(degs)
        if self.quotient is not None:
            top = self.quotient.quotient_top_degree()
            if top is None:
                # the ring came in with the job: a bad input, not a failed check
                raise InputError("strand ranges need an Artinian quotient")
            return range(lo, max(degs) + top + 1)
        return None  # unbounded over Q

    def homology_dims(self, n: int, ranks: dict | None = None) -> dict:
        """Strand dimensions of H_n, for complexes over an Artinian quotient:
        dim C_(n,d) - rank d_(n,d) - rank d_(n+1,d) in each internal degree d.

        ranks, when given, holds (dim, rank) per strand (n, d) and is filled
        as strands are ranked; a caller that walks n upward with one dict
        ranks each strand once.
        """
        rng = self.internal_degree_range(n)
        if rng is None:
            raise InternalCheckError("homology_dims is for complexes over Artinian R")
        if ranks is None:
            ranks = {}
        out = {}
        for d in rng:
            dim, rank_n = self._strand_rank(n, d, ranks)
            h = dim - rank_n - self._strand_rank(n + 1, d, ranks)[1]
            if h < 0:
                raise InternalCheckError("image larger than kernel; not a complex?")
            if h:
                out[d] = h
        return out

    def _strand_rank(self, n: int, d: int, ranks: dict):
        """(dim C_(n,d), rank d_(n,d)), looked up in or added to ranks."""
        got = ranks.get((n, d))
        if got is None:
            cols = self.strand_columns(n, d)
            got = ranks[n, d] = (len(cols), rank_of(cols, self.ring.p))
        return got

    def homology_is_zero(self, n: int) -> bool:
        """Exactness at position n (1 <= n), valid over Q and over Artinian R."""
        if self.quotient is None:
            cols = [self.diff(n).column(j) for j in range(self.rank(n))]
            syz = syzygies_of(cols, self.rank(n - 1), self.ring)
            if not syz:
                return True
            up = SubmoduleBasis(self.ring,
                                [self.diff(n + 1).column(j) for j in range(self.rank(n + 1))])
            return all(up.contains(w) for w in syz)
        return not self.homology_dims(n)

    def unit_entries(self, through: int | None = None):
        """Differential entries with a unit part, as (n, row, column), in the
        order of (n, column, row) whatever the order the entries were set in;
        none iff the complex is minimal.  Reduction modulo I, an ideal
        inside n, keeps the constant term, so entries are read as stored."""
        top = self.top() if through is None else through
        for n in range(1, top + 1):
            yield from sorted(((n, i, j) for j, col in self.diff(n).columns.items()
                               for i, f in col.items() if f.constant_coeff()),
                              key=lambda e: (e[2], e[1]))

    def is_minimal(self, through: int | None = None) -> bool:
        return next(self.unit_entries(through), None) is None

    def poincare_coeffs(self):
        """The ranks of C_0, ..., C_top."""
        return [self.rank(n) for n in range(self.top() + 1)]

    def __repr__(self):
        ranks = ", ".join(map(str, self.poincare_coeffs()))
        over = "R" if self.quotient is not None else "Q"
        return f"GradedFreeComplex over {over} with ranks ({ranks})"

