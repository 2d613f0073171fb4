"""Buchberger machinery for ideals and submodules of free modules over Q.

One engine serves both: an ideal is a submodule of Q^1.  The order is
position-over-term with earlier positions greater, grevlex on monomials;
the reduced basis is unique, so all downstream choices are deterministic.

Syzygies and lifts use the augmentation trick: to study columns g_1..g_s
of Q^a, run the engine on g_i + e_(a+i) inside Q^(a+s); basis elements
supported in the tail positions are syzygies, and tails of normal forms
are lift certificates.

Each Ideal owns one RTable, the graded data of R = Q/I (standard monomials
per degree, normal forms per monomial), and every strand of a graded free
R-module is a Strand over that table.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf

from .errors import InternalCheckError
from .linalg import SparseEchelon, kernel_basis
from .ring import (
    Polynomial,
    PolyRing,
    grevlex_key,
    mono_div,
    mono_divides,
    mono_gcd,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
)
from .matrices import FreeModuleElement, PolyMatrix


def lead_term(v: FreeModuleElement):
    """(position, monomial) lead of a module element: smallest position wins,
    grevlex-largest monomial within it."""
    pos = min(v.coords)
    return pos, v.coords[pos].lead_monomial()


def _term_key(t):
    pos, mono = t
    return (-pos, grevlex_key(mono))  # bigger key = bigger term


# ---------------------------------------------------------------------------
# the flat-term kernel
#
# Inside the engine a module element is one dict {(pos, mono): coeff}.  The
# heap key (pos, -deg, reversed mono) is smallest for the biggest term, so a
# heap of an element's terms pops its lead first.  Reducers are found by
# lead position: index[pos] lists (lead mono, tail terms) of monic elements.
# ---------------------------------------------------------------------------


def _heap_key(pos, mono):
    return (pos, -sum(mono), mono[::-1], mono)


def _flat(v: FreeModuleElement) -> dict:
    return {(pos, m): c for pos, f in v.coords.items() for m, c in f.terms.items()}


def _unflat(ring: PolyRing, terms: dict) -> FreeModuleElement:
    coords = {}
    for (pos, m), c in terms.items():
        coords.setdefault(pos, {})[m] = c
    return FreeModuleElement(ring, {pos: Polynomial(ring, t) for pos, t in coords.items()})


def _lead(terms: dict):
    """The (pos, mono) lead of a nonzero flat element."""
    return min(terms, key=lambda t: _heap_key(*t))


def _index_add(index: dict, lead, terms: dict):
    """File the monic flat element terms with the given lead as a reducer."""
    pos, mono = lead
    tail = [(tp, tm, c) for (tp, tm), c in terms.items() if tm != mono or tp != pos]
    index.setdefault(pos, []).append((mono, tail))


def _reduce(terms: dict, index: dict, p: int, full: bool) -> dict:
    """Reduce the flat element terms in place against index.

    Terms are popped largest first.  A term with a reducer (the first in
    index order whose lead divides it) is cancelled, which only adds smaller
    terms, so a popped term never comes back.  With full, irreducible terms
    move to the returned remainder and terms ends empty; otherwise the first
    irreducible term stops the loop, terms holds the top-reduced element and
    the remainder is empty.
    """
    heap = [_heap_key(pos, m) for pos, m in terms]
    heapify(heap)
    rem = {}
    while heap:
        pos, _, _, mono = heappop(heap)
        c = terms.pop((pos, mono), None)
        if c is None:
            continue    # cancelled after it was pushed, or a duplicate entry
        for lm, tail in index.get(pos, ()):
            if all(a <= b for a, b in zip(lm, mono)):
                break
        else:
            if not full:
                terms[pos, mono] = c
                break
            rem[pos, mono] = c
            continue
        q = tuple(a - b for a, b in zip(mono, lm))
        for tp, tm, tc in tail:
            m = tuple(a + b for a, b in zip(tm, q))
            old = terms.get((tp, m))
            if old is None:
                terms[tp, m] = -c * tc % p
                heappush(heap, _heap_key(tp, m))
            else:
                v = (old - c * tc) % p
                if v:
                    terms[tp, m] = v
                else:
                    del terms[tp, m]
    return rem


def _lead_index(basis) -> dict:
    """Reducer index of a list of monic elements, in order."""
    index = {}
    for g in basis:
        terms = _flat(g)
        _index_add(index, _lead(terms), terms)
    return index


def _normal_form(v: FreeModuleElement, index: dict) -> FreeModuleElement:
    return _unflat(v.ring, _reduce(_flat(v), index, v.ring.p, full=True))


def reduce_element(v: FreeModuleElement, basis, full: bool = True) -> FreeModuleElement:
    """Normal form of v against basis (list of (lead, elt) with monic elts).

    With full = False only the lead is reduced: the result is v minus
    multiples of basis elements, with a lead no basis lead divides (or 0).
    """
    index = _lead_index([g for _, g in basis])
    if full:
        return _normal_form(v, index)
    terms = _flat(v)
    _reduce(terms, index, v.ring.p, full=False)
    return _unflat(v.ring, terms)


def module_groebner(gens, ring: PolyRing):
    """Reduced Groebner basis of the submodule generated by gens.

    Returns monic FreeModuleElements, fully inter-reduced, sorted by
    ascending lead term.
    """
    p = ring.p
    basis = []      # (lead, flat monic element), distinct leads, insertion order
    confined = []   # element lives in its lead position only
    by_pos = {}     # position -> basis indices with a lead there
    index = {}      # reducer index of basis
    pairs = []      # heap of (deg lcm, grevlex lcm, i, j)
    done_pairs = set()

    def insert(terms):
        _reduce(terms, index, p, full=False)
        if not terms:
            return
        lead = _lead(terms)
        c = terms[lead]
        if c != 1:
            inv = ring.inv(c)
            terms = {t: v * inv % p for t, v in terms.items()}
        k = len(basis)
        pos, mono = lead
        for t in by_pos.get(pos, ()):
            lc = mono_lcm(basis[t][0][1], mono)
            heappush(pairs, (sum(lc), grevlex_key(lc), t, k))
        basis.append((lead, terms))
        confined.append(all(tp == pos for tp, _ in terms))
        by_pos.setdefault(pos, []).append(k)
        _index_add(index, lead, terms)

    for g in sorted((g for g in gens if g.coords), key=lambda g: _term_key(lead_term(g))):
        insert(_flat(g))

    while pairs:
        _, _, i, j = heappop(pairs)
        done_pairs.add((i, j))
        (pi, mi), gi = basis[i]
        (_, mj), gj = basis[j]
        lcm = mono_lcm(mi, mj)
        # coprime-lead criterion; only valid when both elements are confined
        # to their common lead position (it fails for genuine module elements)
        if lcm == mono_mul(mi, mj) and confined[i] and confined[j]:
            continue
        # chain criterion: some k with lead dividing the lcm and both pairs done
        if any(k != i and k != j and mono_divides(basis[k][0][1], lcm)
               and (min(i, k), max(i, k)) in done_pairs
               and (min(j, k), max(j, k)) in done_pairs
               for k in by_pos[pi]):
            continue
        # S-element: the leads cancel, so only the tails contribute
        s = {}
        for g, lead, sign in ((gi, mi, 1), (gj, mj, -1)):
            q = mono_div(lcm, lead)
            for (tp, tm), c in g.items():
                m = mono_mul(tm, q)
                v = (s.get((tp, m), 0) + sign * c) % p
                if v:
                    s[tp, m] = v
                else:
                    s.pop((tp, m), None)
        insert(s)

    # minimal basis: drop leads divisible by another lead at the same position
    # (leads are distinct), then reduce each kept tail against all kept leads;
    # no lead divides a term of its own tail, so the index may hold itself
    kept = [(lead, g) for k, (lead, g) in enumerate(basis)
            if not any(o != k and mono_divides(basis[o][0][1], lead[1]) for o in by_pos[lead[0]])]
    kept_index = {}
    for lead, g in kept:
        _index_add(kept_index, lead, g)
    reduced = []
    for lead, g in kept:
        tail = {t: c for t, c in g.items() if t != lead}
        rem = _reduce(tail, kept_index, p, full=True)
        rem[lead] = 1
        reduced.append((lead, rem))
    reduced.sort(key=lambda e: _term_key(e[0]))
    return [_unflat(ring, terms) for _, terms in reduced]


def _augment(columns, ambient_rank, ring):
    out = []
    for i, col in enumerate(columns):
        coords = dict(col.coords)
        coords[ambient_rank + i] = ring.one()
        out.append(FreeModuleElement(ring, coords))
    return out


def syzygies_of(columns, ambient_rank: int, ring: PolyRing):
    """Generators of {w in Q^s : sum w_i * columns[i] = 0}."""
    gb = module_groebner(_augment(columns, ambient_rank, ring), ring)
    syz = []
    for g in gb:
        if all(pos >= ambient_rank for pos in g.coords):
            syz.append(FreeModuleElement(ring, {pos - ambient_rank: f for pos, f in g.coords.items()}))
    return syz


def lift_through(columns, ambient_rank: int, target: FreeModuleElement, ring: PolyRing):
    """Coefficients w with sum w_i * columns[i] = target, or None."""
    gb = module_groebner(_augment(columns, ambient_rank, ring), ring)
    r = _normal_form(target, _lead_index(gb))
    if any(pos < ambient_rank for pos in r.coords):
        return None
    return FreeModuleElement(ring, {pos - ambient_rank: -f for pos, f in r.coords.items()})


class SubmoduleBasis:
    """Cached Groebner data for a submodule of Q^ambient, for repeated queries."""

    __slots__ = ("ring", "columns", "_gb", "_index")

    def __init__(self, ring, columns):
        self.ring = ring
        self.columns = [c for c in columns if c.coords]
        self._gb = None
        self._index = None

    def groebner(self):
        if self._gb is None:
            self._gb = module_groebner(self.columns, self.ring)
            self._index = _lead_index(self._gb)
        return self._gb

    def normal_form(self, v: FreeModuleElement) -> FreeModuleElement:
        self.groebner()
        return _normal_form(v, self._index)

    def contains(self, v: FreeModuleElement) -> bool:
        return not self.normal_form(v).coords


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------


def _wrap(f: Polynomial) -> FreeModuleElement:
    return FreeModuleElement(f.ring, {0: f} if f else {})


def _unwrap(v: FreeModuleElement) -> Polynomial:
    return v.coords.get(0, v.ring.zero())


class Ideal:
    """Homogeneous ideal of Q with a cached reduced Groebner basis."""

    __slots__ = ("ring", "gens", "_gb", "_leads", "_table")

    def __init__(self, ring: PolyRing, gens):
        self.ring = ring
        self.gens = [g for g in gens if g]
        self._gb = None
        self._leads = None
        self._table = None

    def groebner(self):
        if self._gb is None:
            if not self.gens:
                self._gb = []
            else:
                gb = module_groebner([_wrap(g) for g in self.gens], self.ring)
                self._gb = [_unwrap(v) for v in gb]
            self._leads = [g.lead_monomial() for g in self._gb]
        return self._gb

    def table(self) -> "RTable":
        """The graded data of Q/I, built on first use and kept for the ideal's life."""
        if self._table is None:
            self._table = RTable(self)
        return self._table

    def lead_monomials(self):
        self.groebner()
        return self._leads

    def is_zero(self) -> bool:
        return not self.gens

    def normal_form(self, f: Polynomial) -> Polynomial:
        """The linear combination of the table's monomial normal forms."""
        table = self._table or self.table()
        if not table.leads:
            return f
        return Polynomial(self.ring, table._combine(f.terms.items()))

    def contains(self, f: Polynomial) -> bool:
        return not self.normal_form(f)

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.gens)

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.groebner() == other.groebner()

    def __hash__(self):
        return hash(tuple(sorted((m, c) for g in self.groebner() for m, c in g.terms.items())))

    def is_monomial(self) -> bool:
        return all(len(g.terms) == 1 for g in self.gens)

    def monomial_gens(self):
        assert self.is_monomial()
        gens = sorted({g.lead_monomial() for g in self.gens}, key=grevlex_key)
        return [m for m in gens if not any(o != m and mono_divides(o, m) for o in gens)]

    def is_proper(self) -> bool:
        return not self.contains(self.ring.one())

    def product(self, other: "Ideal") -> "Ideal":
        if self.is_zero() or other.is_zero():
            return Ideal(self.ring, [])
        return Ideal(self.ring, [f * g for f in self.gens for g in other.gens])

    def intersect(self, other: "Ideal") -> "Ideal":
        if self.is_zero() or other.is_zero():
            return Ideal(self.ring, [])
        if self.is_monomial() and other.is_monomial():
            gens = [self.ring.monomial(mono_lcm(a, b))
                    for a in self.monomial_gens() for b in other.monomial_gens()]
            return Ideal(self.ring, gens)
        cols = [_wrap(g) for g in self.gens] + [_wrap(-g) for g in other.gens]
        out = []
        for w in syzygies_of(cols, 1, self.ring):
            elt = self.ring.zero()
            for i, f in w.coords.items():
                if i < len(self.gens):
                    elt = elt + f * self.gens[i]
            if elt:
                out.append(elt)
        return Ideal(self.ring, out)

    def colon_element(self, f: Polynomial) -> "Ideal":
        """I : (f)."""
        if not f:
            return Ideal(self.ring, [self.ring.one()])
        if self.is_zero():
            return Ideal(self.ring, [])
        if self.is_monomial() and len(f.terms) == 1:
            m = f.lead_monomial()
            gens = [self.ring.monomial(mono_div(g, mono_gcd(g, m))) for g in self.monomial_gens()]
            return Ideal(self.ring, gens)
        cols = [_wrap(g) for g in self.gens] + [_wrap(f)]
        out = [w.coords[len(self.gens)] for w in syzygies_of(cols, 1, self.ring)
               if len(self.gens) in w.coords]
        return Ideal(self.ring, out)

    def colon(self, other: "Ideal") -> "Ideal":
        """I : J = {q in Q : qJ <= I}."""
        if other.is_zero():
            return Ideal(self.ring, [self.ring.one()])
        result = None
        for f in other.gens:
            piece = self.colon_element(f)
            result = piece if result is None else result.intersect(piece)
        return result

    def __repr__(self):
        return f"Ideal({', '.join(map(str, self.gens))})"


class RTable:
    """Graded data of R = Q/I, shared by every strand computation over R.

    Per degree d it holds the standard monomials of degree d in ascending
    grevlex order (a k-basis of R_d) and their positions; per monomial m it
    holds the normal form of m modulo I as a tuple of (monomial, coefficient)
    terms.  Both are filled in on first use.  A monomial no lead monomial
    divides is its own normal form; any other reduces to 0 when the Groebner
    basis is monomial and otherwise costs one reduction against it.  Normal
    forms against a Groebner basis are linear, so the normal form of a
    polynomial is the combination of the forms of its monomials.

    Products over R skip what is 0 by degree.  When the Groebner basis is
    homogeneous (as it is for every homogeneous I), reduction keeps degrees,
    so the normal form of a monomial of degree e lies in R_e; when R is
    Artinian, R_e = 0 for e > top.  A monomial of degree above top therefore
    has normal form 0, and dropping it from a sum changes no normal form,
    whether or not the factors are homogeneous.  `cap` is top in exactly that
    case and None otherwise (an inhomogeneous basis can reduce a high-degree
    monomial to a nonzero one of low degree), and `mul` skips a monomial
    pair only when its degree sum exceeds cap.
    """

    __slots__ = ("ring", "leads", "forms", "top", "cap", "_monomial_gb", "_reducers",
                 "_bases", "_indexes", "_socles")

    def __init__(self, ideal: Ideal):
        gb = ideal.groebner()
        self.ring = ideal.ring
        self.leads = ideal.lead_monomials()
        self.forms = {}     # monomial -> tuple of (standard monomial, coefficient)
        self._monomial_gb = all(len(g.terms) == 1 for g in gb)
        self._reducers = _lead_index([_wrap(g) for g in gb])
        self._bases = {}    # degree -> standard monomials
        self._indexes = {}  # degree -> {standard monomial: position}
        self._socles = {}   # degree -> k-basis of soc(R) in that degree
        self.top = None     # basis() cuts off above top, once it is known
        self.top = self._top_degree()
        homogeneous = all(g.is_homogeneous() for g in gb)
        self.cap = self.top if homogeneous else None

    def _top_degree(self):
        """Largest d with R_d != 0, or None if R is not Artinian within degree 200."""
        leads = self.leads
        # Artinian iff every variable has a pure power among the lead terms
        for i in range(self.ring.nvars):
            if not any(all(e == 0 for t, e in enumerate(lm) if t != i) and lm[i] > 0 for lm in leads):
                return None
        top = -1
        for d in range(201):
            if not self.basis(d):
                return top
            top = d
        return None

    def basis(self, d: int) -> list:
        """Standard monomials of degree d, ascending grevlex; shared, do not mutate."""
        b = self._bases.get(d)
        if b is None:
            if self.top is not None and d > self.top:
                b = []
            else:
                leads = self.leads
                b = [m for m in monomials_of_degree(self.ring.nvars, d)
                     if not any(mono_divides(lm, m) for lm in leads)]
            self._bases[d] = b
            self._indexes[d] = {m: t for t, m in enumerate(b)}
        return b

    def index(self, d: int) -> dict:
        """Position of each standard monomial of degree d in basis(d)."""
        if d not in self._indexes:
            self.basis(d)
        return self._indexes[d]

    def socle(self, e: int) -> list:
        """A k-basis of soc(R)_e = {r in R_e : x_j r = 0 for every j}, as
        vectors over the positions of basis(e); shared, do not mutate.

        It is the kernel of R_e -> (R_(e+1))^n, r -> (x_1 r, ..., x_n r),
        found by linear algebra, so non-monomial I needs nothing special.
        """
        soc = self._socles.get(e)
        if soc is None:
            nvars = self.ring.nvars
            up = Strand(self, [0] * nvars, e + 1)
            xs = {j: self.ring.var(j) for j in range(nvars)}
            soc = self._socles[e] = kernel_basis([up.vector(xs, m) for m in self.basis(e)],
                                                 self.ring.p)[1]
        return soc

    def form(self, m) -> tuple:
        """Normal form of the monomial m modulo I, as (monomial, coefficient) terms."""
        form = self.forms.get(m)
        if form is None:
            if not any(mono_divides(lm, m) for lm in self.leads):
                form = ((m, 1),)
            elif self._monomial_gb:
                form = ()
            else:
                r = _normal_form(_wrap(self.ring.monomial(m)), self._reducers)
                form = tuple(_unwrap(r).terms.items())
            self.forms[m] = form
        return form

    def mul(self, f: Polynomial, g: Polynomial) -> Polynomial:
        """Normal form of f * g, never forming a monomial of degree above cap."""
        if not self.leads:
            return f * g
        products = self._products(f.terms.items(), g.terms.items())
        return Polynomial(self.ring, self._combine(products))

    def _products(self, fterms, gterms):
        """(m1 * m2, c1 * c2) over the term pairs whose degree sum is at most cap."""
        cap = inf if self.cap is None else self.cap
        for m1, c1 in fterms:
            room = cap - sum(m1)
            if room < 0:
                continue
            for m2, c2 in gterms:
                if sum(m2) <= room:
                    yield mono_mul(m1, m2), c1 * c2

    def _combine(self, terms) -> dict:
        """{standard monomial: coefficient} of the sum of c * NF(m) over (m, c) in terms."""
        forms = self.forms
        p = self.ring.p
        res = {}
        for m, c in terms:
            form = forms.get(m)
            if form is None:
                form = self.form(m)
            for mm, cc in form:
                v = (res.get(mm, 0) + c * cc) % p
                if v:
                    res[mm] = v
                else:
                    res.pop(mm, None)
        return res

    def matrix_strand(self, matrix: PolyMatrix, d: int, src=None, tgt=None):
        """(source strand, columns) of a homogeneous matrix at internal degree d.

        Column t holds the coordinates of m * (column i of matrix) in the
        target strand, for the t-th source basis element (i, m).  src and
        tgt, the strands of the column and row degrees at d, are built
        here unless the caller passes strands it shares with other matrices.
        """
        if src is None:
            src = Strand(self, matrix.col_degrees, d)
        if tgt is None:
            tgt = Strand(self, matrix.row_degrees, d)
        columns = matrix.columns
        return src, [tgt.vector(columns.get(i, {}), m) for i, m in src]


class Strand:
    """Degree-d piece of a graded free R-module with basis degrees `degrees`.

    Its k-basis, numbered from 0, is the pairs (i, m) with m a standard
    monomial of degree d - degrees[i], ordered by i and then by grevlex.
    Vectors are sparse dicts {position: nonzero residue mod p}.

    When table.cap is set, a summand of degree d - degrees[i] above
    table.top is R_e = 0 in a homogeneous quotient, and vector skips its
    entries unread: every product landing there is 0 in R.
    """

    __slots__ = ("table", "d", "pairs", "_offsets", "_indexes", "_shifts")

    def __init__(self, table: RTable, degrees, d: int):
        self.table = table
        self.d = d
        self.pairs = []
        self._offsets = []
        self._indexes = []   # per summand {standard monomial: position}, None when skipped
        self._shifts = [d - bdeg for bdeg in degrees]  # degree of R in each summand
        above = inf if table.cap is None else table.cap
        pairs, offsets, indexes = self.pairs, self._offsets, self._indexes
        for i, e in enumerate(self._shifts):
            offsets.append(len(pairs))
            if e > above:
                indexes.append(None)
                continue
            index = table.index(e)   # keys in the order of table.basis(e)
            indexes.append(index)
            if index:
                pairs.extend([(i, m) for m in index])

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def position(self, i: int, m) -> int:
        """Position of the basis element (i, m)."""
        return self._offsets[i] + self._indexes[i][m]

    def vector(self, coords: dict, mono=None) -> dict:
        """Coordinates of the normal form of mono * v, v = {i: Polynomial}.

        v must be homogeneous of degree d - deg(mono) (mono = 1 when None);
        an entry in a summand above table.top contributes nothing (class
        docstring).
        """
        table = self.table
        forms = table.forms
        p = table.ring.p
        vec = {}
        for i, f in coords.items():
            index = self._indexes[i]
            if index is None:
                continue
            off = self._offsets[i]
            for m, c in f.terms.items():
                if mono is not None:
                    m = mono_mul(m, mono)
                form = forms.get(m)
                if form is None:
                    form = table.form(m)
                for mm, cc in form:
                    t = index.get(mm)
                    if t is None:
                        raise InternalCheckError("strand vector outside the standard basis")
                    t += off
                    v = (vec.get(t, 0) + c * cc) % p
                    if v:
                        vec[t] = v
                    else:
                        vec.pop(t, None)
        return vec

    def span(self, elements, min_mult_degree: int = 0, ech: SparseEchelon | None = None):
        """Echelon of the vectors of m * v over (v, deg v) in elements and
        standard monomials m of degree d - deg v >= min_mult_degree.

        The vectors go into ech when it is given, else into a new echelon.
        """
        if ech is None:
            ech = SparseEchelon(self.table.ring.p)
        for v, vdeg in elements:
            need = self.d - vdeg
            if need >= min_mult_degree:
                for m in self.table.basis(need):
                    ech.insert(self.vector(v.coords, m))
        return ech

    def socle(self) -> list:
        """Vectors of a k-basis of (soc(R) F)_d, F the free module of this strand."""
        return [{off + t: c for t, c in vec.items()}
                for off, e in zip(self._offsets, self._shifts) for vec in self.table.socle(e)]

    def element(self, vec: dict) -> FreeModuleElement:
        """The module element with coordinates vec."""
        ring = self.table.ring
        coords = {}
        for t, c in vec.items():
            i, m = self.pairs[t]
            coords.setdefault(i, {})[m] = c
        return FreeModuleElement(ring, {i: Polynomial(ring, terms) for i, terms in coords.items()})


def maximal_ideal(ring: PolyRing) -> Ideal:
    return Ideal(ring, ring.maximal_ideal_gens())


def syzygy_matrix(m: PolyMatrix) -> PolyMatrix:
    """Generating set of ker(m) as columns of a matrix."""
    cols = [m.column(j) for j in range(m.cols)]
    syz = syzygies_of(cols, m.rows, m.ring)
    degs = [w.degree(m.col_degrees) for w in syz]
    order = sorted(range(len(syz)), key=lambda t: (degs[t], t))
    return PolyMatrix.from_columns(
        m.ring, m.col_degrees, [syz[t] for t in order], [degs[t] for t in order]
    )
