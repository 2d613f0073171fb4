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

from .errors import InternalCheckError
from .linalg import SparseEchelon
from .ring import (
    Polynomial,
    PolyRing,
    grevlex_key,
    mono_deg,
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


def lead_coeff(v: FreeModuleElement) -> int:
    pos, mono = lead_term(v)
    return v.coords[pos].terms[mono]


def _term_key(t):
    pos, mono = t
    return (-pos, grevlex_key(mono))  # bigger key = bigger term


def reduce_element(v: FreeModuleElement, basis, full: bool = True) -> FreeModuleElement:
    """Normal form of v against basis (list of (lead, elt) with monic elts)."""
    ring = v.ring
    rem = FreeModuleElement(ring, {})
    cur = FreeModuleElement(ring, dict(v.coords))
    while cur.coords:
        pos, mono = lead_term(cur)
        c = cur.coords[pos].terms[mono]
        hit = None
        for (bpos, bmono), g in basis:
            if bpos == pos and mono_divides(bmono, mono):
                hit = (bmono, g)
                break
        if hit is not None:
            bmono, g = hit
            cur = cur - g.mul_term(mono_div(mono, bmono), c)
        else:
            if not full:
                break
            lead_piece = FreeModuleElement(ring, {pos: ring.monomial(mono, c)})
            rem = rem + lead_piece
            cur = cur - lead_piece
    if not full and cur.coords:
        return cur
    return rem


def module_groebner(gens, ring: PolyRing):
    """Reduced Groebner basis of the submodule generated by gens.

    Returns monic FreeModuleElements, fully inter-reduced, sorted by
    ascending lead term.
    """
    basis = []  # (lead, element), monic, distinct leads
    done_pairs = set()

    def insert(elt):
        r = reduce_element(elt, basis, full=False)
        if not r.coords:
            return None
        r = r.scale(ring.inv(lead_coeff(r)))
        basis.append((lead_term(r), r))
        return len(basis) - 1

    work = sorted((g for g in gens if g.coords), key=lambda g: _term_key(lead_term(g)))
    pairs = []
    for g in work:
        k = insert(g)
        if k is None:
            continue
        (pk, mk), _ = basis[k]
        for t in range(k):
            (pt, mt), _ = basis[t]
            if pt == pk:
                lc = mono_lcm(mt, mk)
                pairs.append((mono_deg(lc), grevlex_key(lc), t, k))
    pairs.sort()

    while pairs:
        _, _, i, j = pairs.pop(0)
        done_pairs.add((i, j))
        (pi, mi), gi = basis[i]
        (pj, mj), gj = basis[j]
        lcm = mono_lcm(mi, mj)
        # coprime-lead criterion; only valid when both elements are confined
        # to their common lead position (it fails for genuine module elements)
        if (
            lcm == mono_mul(mi, mj)
            and set(gi.coords) == {pi}
            and set(gj.coords) == {pj}
        ):
            continue
        # chain criterion: some k with lead dividing the lcm and both pairs done
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            (pk, mk), _ = basis[k]
            if pk == pi and mono_divides(mk, lcm):
                if (min(i, k), max(i, k)) in done_pairs and (min(j, k), max(j, k)) in done_pairs:
                    skip = True
                    break
        if skip:
            continue
        s = gi.mul_term(mono_div(lcm, mi), 1) - gj.mul_term(mono_div(lcm, mj), 1)
        k = insert(s)
        if k is not None:
            (pk, mk), _ = basis[k]
            for t in range(k):
                (pt, mt), _ = basis[t]
                if pt == pk:
                    lc = mono_lcm(mt, mk)
                    pairs.append((mono_deg(lc), grevlex_key(lc), t, k))
            pairs.sort()

    # minimal basis: drop leads divisible by another kept lead (leads are distinct)
    leads = [lead for lead, _ in basis]
    kept = []
    for idx, (lead, g) in enumerate(basis):
        pos, mono = lead
        if not any(
            o != idx and leads[o][0] == pos and mono_divides(leads[o][1], mono)
            for o in range(len(basis))
        ):
            kept.append((lead, g))
    # full tail reduction gives the unique reduced basis
    reduced = []
    for idx in range(len(kept)):
        others = [kept[t] for t in range(len(kept)) if t != idx]
        r = reduce_element(kept[idx][1], others, full=True)
        if r.coords:
            reduced.append(r.scale(ring.inv(lead_coeff(r))))
    reduced.sort(key=lambda g: _term_key(lead_term(g)))
    return reduced


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
    leads = [(lead_term(g), g) for g in gb]
    r = reduce_element(target, leads, full=True)
    if any(pos < ambient_rank for pos in r.coords):
        return None
    return FreeModuleElement(ring, {pos - ambient_rank: -f for pos, f in r.coords.items()})


class SubmoduleBasis:
    """Cached Groebner data for a submodule of Q^ambient, for repeated queries."""

    __slots__ = ("ring", "ambient", "columns", "_gb", "_leads", "_aug_gb", "_aug_leads")

    def __init__(self, ring, ambient_rank, columns):
        self.ring = ring
        self.ambient = ambient_rank
        self.columns = [c for c in columns if c.coords]
        self._gb = None
        self._leads = None
        self._aug_gb = None
        self._aug_leads = None

    def groebner(self):
        if self._gb is None:
            self._gb = module_groebner(self.columns, self.ring)
            self._leads = [(lead_term(g), g) for g in self._gb]
        return self._gb

    def normal_form(self, v: FreeModuleElement) -> FreeModuleElement:
        self.groebner()
        return reduce_element(v, self._leads, full=True)

    def contains(self, v: FreeModuleElement) -> bool:
        return not self.normal_form(v).coords

    def _aug(self):
        if self._aug_gb is None:
            self._aug_gb = module_groebner(_augment(self.columns, self.ambient, self.ring), self.ring)
            self._aug_leads = [(lead_term(g), g) for g in self._aug_gb]
        return self._aug_gb

    def lift(self, target: FreeModuleElement):
        """w with sum w_i columns[i] = target, or None."""
        self._aug()
        r = reduce_element(target, self._aug_leads, full=True)
        if any(pos < self.ambient for pos in r.coords):
            return None
        return FreeModuleElement(self.ring, {pos - self.ambient: -f for pos, f in r.coords.items()})

    def syzygies(self):
        self._aug()
        out = []
        for g in self._aug_gb:
            if all(pos >= self.ambient for pos in g.coords):
                out.append(FreeModuleElement(self.ring, {pos - self.ambient: f for pos, f in g.coords.items()}))
        return out


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
        forms = table.forms
        p = self.ring.p
        res = {}
        for m, c in f.terms.items():
            form = forms.get(m)
            if form is None:
                form = table.form(m)
            for mm, cc in form:
                v = (res.get(mm, 0) + c * cc) % p
                if v:
                    res[mm] = v
                else:
                    res.pop(mm, None)
        return Polynomial(self.ring, res)

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

    def sum(self, other: "Ideal") -> "Ideal":
        return Ideal(self.ring, self.gens + other.gens)

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

    # -- graded structure ----------------------------------------------------

    def standard_monomials(self, d: int):
        """Monomials of degree d outside the lead-term ideal: a k-basis of (Q/I)_d."""
        return list(self.table().basis(d))

    def quotient_top_degree(self):
        """Largest d with (Q/I)_d != 0, or None if Q/I is not Artinian."""
        return self.table().top

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
    """

    __slots__ = ("ring", "leads", "forms", "top", "_monomial_gb", "_reducers",
                 "_bases", "_indexes")

    def __init__(self, ideal: Ideal):
        gb = ideal.groebner()
        self.ring = ideal.ring
        self.leads = ideal.lead_monomials()
        self.forms = {}     # monomial -> tuple of (standard monomial, coefficient)
        self._monomial_gb = all(len(g.terms) == 1 for g in gb)
        self._reducers = [(lead_term(_wrap(g)), _wrap(g)) for g in gb]
        self._bases = {}    # degree -> standard monomials
        self._indexes = {}  # degree -> {standard monomial: position}
        self.top = None     # basis() cuts off above top, once it is known
        self.top = self._top_degree()

    def _top_degree(self):
        """Largest d with R_d != 0, or None if R is not Artinian within degree 200."""
        leads = self.leads
        # Artinian iff every variable has a pure power among the lead terms
        for i in range(self.ring.nvars):
            if not any(all(e == 0 for t, e in enumerate(lm) if t != i) and lm[i] > 0 for lm in leads):
                return None
        top = -1
        d = 0
        while d <= 200 and self.basis(d):
            top = d
            d += 1
        return top

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

    def form(self, m) -> tuple:
        """Normal form of the monomial m modulo I, as (monomial, coefficient) terms."""
        form = self.forms.get(m)
        if form is None:
            if not any(mono_divides(lm, m) for lm in self.leads):
                form = ((m, 1),)
            elif self._monomial_gb:
                form = ()
            else:
                r = reduce_element(_wrap(self.ring.monomial(m)), self._reducers, full=True)
                form = tuple(_unwrap(r).terms.items())
            self.forms[m] = form
        return form

    def matrix_strand(self, matrix: PolyMatrix, d: int):
        """(source strand, columns) of a homogeneous matrix at internal degree d.

        Column t holds the coordinates of m * (column i of matrix) in the
        target strand, for the t-th source basis element (i, m).
        """
        src = Strand(self, matrix.col_degrees, d)
        tgt = Strand(self, matrix.row_degrees, d)
        columns = matrix.columns
        return src, [tgt.vector(columns.get(i, {}), m) for i, m in src]


class Strand:
    """Degree-d piece of a graded free R-module with basis degrees `degrees`.

    Its k-basis, numbered from 0, is the pairs (i, m) with m a standard
    monomial of degree d - degrees[i], ordered by i and then by grevlex.
    Vectors are sparse dicts {position: nonzero residue mod p}.
    """

    __slots__ = ("table", "d", "pairs", "_offsets", "_indexes")

    def __init__(self, table: RTable, degrees, d: int):
        self.table = table
        self.d = d
        self.pairs = []
        self._offsets = []
        self._indexes = []
        for i, bdeg in enumerate(degrees):
            self._offsets.append(len(self.pairs))
            self._indexes.append(table.index(d - bdeg))
            self.pairs.extend((i, m) for m in table.basis(d - bdeg))

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def vector(self, coords: dict, mono=None) -> dict:
        """Coordinates of the normal form of mono * v, v = {i: Polynomial}.

        v must be homogeneous of degree d - deg(mono) (mono = 1 when None).
        """
        table = self.table
        forms = table.forms
        p = table.ring.p
        vec = {}
        for i, f in coords.items():
            off = self._offsets[i]
            index = self._indexes[i]
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
