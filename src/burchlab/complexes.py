"""Chain complexes of graded free modules, over Q or over R = Q/I.

A complex stores per homological degree the list of internal basis degrees
and the differential as a PolyMatrix.  Complexes over R carry the quotient
ideal, and their graded strands use the standard monomials of R as
coefficient bases.  Every builder of a complex over R (the bar, the small
complex of minimalize, resolve_over_R) stores nonzero normal forms, so
readers take the entries as stored and never reduce them again.

A complex given by basis keys and the boundary of each key (Taylor, bar,
minimalized) is assembled by keyed_complex.  The Tate closure and the
semifree module grow theirs a degree at a time (tate.AdjunctionEngine);
both place a key's boundary through place_columns.

d o d = 0 is checked two ways: GradedFreeComplex.check_dd_zero composes
the matrices (over Q, and over R multiplying in R), the only check for
complexes over Q and the reference over R; Strands.check_dd_zero reads it
off F_p strands over R, which is how the bar checks itself.

Strands is the one place that ranks F_p strands over R: the bar's checks
and homology over Artinian R, H_(n,d) = dim C_(n,d) - rank d_(n,d) -
rank d_(n+1,d), read its ranks.  Exactness over Q is checked only by the
tests, by a Groebner argument (homology_is_zero in tests/support/checks.py).
"""

from __future__ import annotations

from .errors import InternalCheckError
from .groebner import Ideal, Strand
from .linalg import rank_of
from .matrices import PolyMatrix
from .ring import PolyRing


def place_columns(mat: PolyMatrix, n: int, keys, target: dict, image, start: int = 0):
    """Set column start + j of mat, a d_n, to the boundary image(n, keys[j])
    with each key mapped to its position in target, {key of degree n - 1:
    index}, in the image's own order.  A key of an image missing from target
    raises InternalCheckError."""
    for j, key in enumerate(keys, start):
        try:
            col = {target[k]: f for k, f in image(n, key).items()}
        except KeyError as missing:
            raise InternalCheckError(f"boundary key {missing.args[0]} of {key} is missing "
                                     f"at degree {n - 1}") from None
        if col:
            mat.columns[j] = col


def keyed_complex(ring: PolyRing, basis: dict, internal_degree, image, quotient: Ideal | None = None):
    """The free complex on basis keys, and the position of each key.

    basis maps each degree n to its keys, in the order of their positions;
    internal_degree(n, key) is a key's degree label and image(n, key) its
    boundary, {key of degree n - 1: Polynomial}, with nonzero entries.
    Returns (GradedFreeComplex, positions), positions[n] = {key: index}.
    Column j of d_n is the image of basis[n][j] (place_columns).
    """
    positions = {n: {key: t for t, key in enumerate(keys)} for n, keys in basis.items()}
    degrees = {n: [internal_degree(n, key) for key in keys] for n, keys in basis.items()}
    diffs = {}
    for n, keys in basis.items():
        if n == 0 or not keys:
            continue
        mat = diffs[n] = PolyMatrix(ring, degrees.get(n - 1, []), degrees[n])
        place_columns(mat, n, keys, positions.get(n - 1, {}), image)
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

    def rtable(self):
        """The RTable of R = Q/I over a quotient, None over Q; `PolyMatrix.compose`
        multiplies in R with it."""
        return self.quotient.table() if self.quotient is not None else None

    # -- checks ---------------------------------------------------------------

    def check_dd_zero(self):
        """d_(n-1) o d_n = 0 for every n, by composing the matrices; over a
        quotient compose multiplies in R through its table, forming no term
        above the top degree of R."""
        table = self.rtable()
        for n in range(2, self.top() + 1):
            if self.rank(n) == 0:
                continue
            comp = self.diff(n - 1).compose(self.diff(n), table)
            if not comp.is_zero():
                raise InternalCheckError(f"d_{n-1} o d_{n} != 0")

    def unit_entries(self):
        """Differential entries with a unit part, as (n, row, column), in the
        order of (n, column, row) whatever the order the entries were set in;
        none iff the complex is minimal.  Reduction modulo I, an ideal
        inside n, keeps the constant term, so entries are read as stored."""
        for n in range(1, self.top() + 1):
            yield from sorted(((n, i, j) for j, col in self.diff(n).columns.items()
                               for i, f in col.items() if f.constant_coeff()),
                              key=lambda e: (e[2], e[1]))

    def is_minimal(self) -> bool:
        return next(self.unit_entries(), None) is None

    def poincare_coeffs(self):
        """The ranks of C_0, ..., C_top."""
        return [self.rank(n) for n in range(self.top() + 1)]

    def __repr__(self):
        ranks = ", ".join(map(str, self.poincare_coeffs()))
        over = "R" if self.quotient is not None else "Q"
        return f"GradedFreeComplex over {over} with ranks ({ranks})"


class Strands:
    """The F_p strands of a complex over R = Q/I, each vectorized once: the
    one place that ranks strands over R.

    strand(n, d) is the Strand of C_n at internal degree d; one object
    serves as d_n's source and as d_(n+1)'s target.  columns(n, d) holds
    every column of d_n's strand at d.  generator_columns(n, d, js) holds
    only the columns of basis elements e_j of degree d (the columns of
    (j, 1)), read out of columns(n, d) when that is built or wanted;
    rank(n, d) keeps each rank and homology(n) reads H_n off the ranks.
    Given exact_through = t, the wanted strands are those homology(1..t)
    reads, and check_dd_zero ranks them while their columns are at hand.

    The strands read the differentials once and are not refreshed, so a
    Strands is for one pass of checks, dropped when the checks return.
    """

    __slots__ = ("cx", "table", "wanted", "ranks", "_strands", "_columns")

    def __init__(self, cx: GradedFreeComplex, exact_through: int | None = None):
        self.cx = cx
        self.table = cx.quotient.table()
        self.ranks = {}      # (n, d) -> (dim C_(n,d), rank d_(n,d))
        self._strands = {}   # (n, d) -> Strand of C_n at d
        self._columns = {}   # (n, d) -> columns of d_n's strand at d
        self.wanted = {(m, d) for n in range(1, (exact_through or 0) + 1)
                       for d in self.degrees(n) for m in (n, n + 1)}

    def degrees(self, n: int):
        """The internal degrees d with C_(n,d) possibly nonzero: from the
        least degree of C_n's basis to the largest plus the top of R."""
        degs = self.cx.basis_degrees(n)
        if not degs:
            return range(0)
        return range(min(degs), max(degs) + self.table.top + 1)

    def strand(self, n: int, d: int) -> Strand:
        got = self._strands.get((n, d))
        if got is None:
            got = self._strands[n, d] = Strand(self.table, self.cx.basis_degrees(n), d)
        return got

    def columns(self, n: int, d: int) -> list:
        """The strand vectors of d_n at d (RTable.matrix_strand)."""
        got = self._columns.get((n, d))
        if got is None:
            got = self._columns[n, d] = self.table.matrix_strand(
                self.cx.diff(n), d, self.strand(n, d), self.strand(n - 1, d))[1]
        return got

    def generator_columns(self, n: int, d: int, js) -> list:
        """Strand vectors of d_n(e_j) at d, for the basis elements e_j of C_n
        (j in js) of degree d."""
        if (n, d) in self._columns or (n, d) in self.wanted:
            src, cols = self.strand(n, d), self.columns(n, d)
            one = (0,) * self.cx.ring.nvars
            return [cols[src.position(j, one)] for j in js]
        tgt = self.strand(n - 1, d)
        if not tgt:
            return [{} for _ in js]
        entries = self.cx.diff(n).columns
        return [tgt.vector(entries.get(j, {})) for j in js]

    def rank(self, n: int, d: int):
        """(dim C_(n,d), rank d_(n,d)), shortest columns first, kept in ranks;
        the columns are dropped once ranked."""
        got = self.ranks.get((n, d))
        if got is None:
            cols = self.columns(n, d)
            del self._columns[n, d]
            got = self.ranks[n, d] = (len(cols), rank_of(cols, self.cx.ring.p))
        return got

    def homology(self, n: int) -> dict:
        """Strand dimensions of H_n: {d: dim C_(n,d) - rank d_(n,d) -
        rank d_(n+1,d)} over degrees(n), nonzero ones only."""
        out = {}
        for d in self.degrees(n):
            dim, rank_n = self.rank(n, d)
            h = dim - rank_n - self.rank(n + 1, d)[1]
            if h < 0:
                raise InternalCheckError("image larger than kernel; not a complex?")
            if h:
                out[d] = h
        return out

    def _done_with(self, n: int, d: int | None = None):
        """Rank the wanted strands of d_n and drop d_n's columns, at d only
        when given; with d None, also drop the strands of C_(n-1).  The
        checks read none of them again."""
        def done(keys):
            return [key for key in keys if key[0] == n and d in (None, key[1])]

        for key in done(self.wanted):
            self.rank(*key)
        for key in done(self._columns):
            del self._columns[key]
        if d is None:
            for key in [key for key in self._strands if key[0] == n - 1]:
                del self._strands[key]

    def check_dd_zero(self):
        """d_(n-1) o d_n = 0 for 2 <= n <= top, over F_p.

        A homogeneous R-linear map of graded free modules vanishes iff it
        vanishes on each basis element e_j, and d_(n-1) d_n(e_j) lies in the
        strand of C_(n-2) at deg e_j: it is the strand vector of d_n(e_j) at
        deg e_j multiplied by the strand matrix of d_(n-1) there.  So each
        degree d of a basis element of C_n needs d_(n-1)'s strand at d in
        full and, of d_n's, only the columns of the elements of degree d.

        Each strand is ranked, when wanted, and dropped once no check reads
        it again, so beside the strands in use only d_n's wanted strands at
        degrees of basis elements of both C_n and C_(n+1) are held.
        """
        cx = self.cx
        p = cx.ring.p
        top = cx.top()

        def by_degree(n):   # {d: the j with deg e_j = d} over C_n's basis
            out = {}
            for j, e in enumerate(cx.basis_degrees(n)):
                out.setdefault(e, []).append(j)
            return out

        here = by_degree(2)
        for n in range(2, top + 1):
            above = by_degree(n + 1) if n < top else {}
            for d, js in here.items():
                below = self.columns(n - 1, d)
                for vec in self.generator_columns(n, d, js):
                    image = {}   # unreduced sums, read only modulo p
                    for t, c in vec.items():
                        for s, cc in below[t].items():
                            image[s] = image.get(s, 0) + c * cc
                    if any(v % p for v in image.values()):
                        raise InternalCheckError(f"d_{n-1} o d_{n} != 0")
                self._done_with(n - 1, d)
                if d not in above:   # d_n's strand at d is not read as a `below`
                    self._done_with(n, d)
            self._done_with(n - 1)
            here = above
        self._done_with(top)
