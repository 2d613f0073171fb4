"""Dg modules and dg algebras on free complexes; the Taylor complex in particular.

A DgModule bundles a complex with a basis-level action of a dg algebra; a
DgAlgebra, a complex with a basis-level product table and a unit, is a dg
module over itself, so one set of unit and Leibniz checks serves both.
Each structure has one product rule on basis keys, returning plain
(position, monomial, coeff) triples; the checks sum those as integers, and
action_basis boxes the same terms as a FreeModuleElement.
The Taylor complex of monomials m_1..m_s has basis e_S indexed by subsets,
differential d(e_S) = sum_k (-1)^k c_(u_k) (lcm S / lcm S\\u_k) e_(S\\u_k), and
product e_S * e_T = sign * (lcm S * lcm T / lcm(S u T)) e_(S u T) for
disjoint S, T (zero otherwise), the sign being the shuffle sign of the
index merge.  A generator given with a coefficient, c_u m_u, scales every
entry that drops u by c_u, so that d(e_u) is the generator itself; the
product is the same, as it is that of the basis e_S rescaled by prod_(u in
S) c_u.  It resolves Q/(m_1..m_s) for any monomial generating set and is
the workhorse dg resolution for monomial quotients.
"""

from __future__ import annotations

from itertools import combinations, product
from operator import add, sub

from .complexes import GradedFreeComplex, keyed_complex
from .errors import InternalCheckError, ResourceCapError
from .matrices import FreeModuleElement, PolyMatrix, add_into
from .ring import Polynomial, PolyRing, mono_deg, mono_div, mono_lcm

TAYLOR_GENERATOR_CAP = 12


class DgModule:
    """A complex Y with a dg action of a DgAlgebra on its basis.

    Subclasses implement the rule action_terms(dx, ix, ny, iy): the action
    of basis element ix of X_dx on basis element iy of Y_ny, as a tuple of
    (position in Y_(dx+ny), exponent tuple, coeff) triples with distinct
    (position, exponent tuple) and coeff in 1..p-1.  action_basis boxes it;
    element-level products extend it by bilinear().
    """

    algebra: DgAlgebra
    complex: GradedFreeComplex
    label = "module "

    @property
    def ring(self) -> PolyRing:
        return self.complex.ring

    def action_terms(self, dx, ix, ny, iy) -> tuple:
        raise NotImplementedError

    def action_basis(self, dx, ix, ny, iy) -> FreeModuleElement:
        return _boxed(self.ring, self.action_terms(dx, ix, ny, iy))

    def op(self, n: int, refs) -> FreeModuleElement:
        """The A-infinity signature, y last: d at n = 1, the action at n = 2, 0 above."""
        if n == 1:
            d, i = refs[-1]
            return self.complex.diff(d).column(i)
        if n == 2:
            (da, ia), (db, ib) = refs
            return self.action_basis(da, ia, db, ib)
        return FreeModuleElement(self.ring, {})

    # -- mechanical dg checks -------------------------------------------------

    def check_unit(self):
        """1 * c = c on every basis element c (and c * 1 = c in an algebra,
        which acts on itself)."""
        p = self.ring.p
        one = (0,) * self.ring.nvars
        times = self.action_terms
        two_sided = self.algebra is self
        for d in range(self.complex.top() + 1):
            for i in range(self.complex.rank(d)):
                want = {(i, one): 1}
                if (_term_sums(times(0, 0, d, i), p) != want
                        or (two_sided and _term_sums(times(d, i, 0, 0), p) != want)):
                    raise InternalCheckError(f"{self.label}unit law fails on basis ({d},{i})")

    def leibniz_pairs(self, da, db):
        """Basis index pairs (ia, ib) of degrees da, db that check_leibniz compares."""
        return product(range(self.algebra.complex.rank(da)), range(self.complex.rank(db)))

    def check_leibniz(self, through: int | None = None):
        """d(a*c) = d(a)*c + (-1)^|a| a*d(c) on every pair from leibniz_pairs.

        Both sides are read from the rule and the differential columns as
        integer terms, summed as {(position, monomial): lhs - rhs} and
        compared exactly mod p.
        """
        p = self.ring.p
        times = self.action_terms
        top = self.complex.top() if through is None else through
        lcols = {n: _column_terms(self.algebra.complex.diff(n)) for n in range(1, top + 1)}
        rcols = {n: _column_terms(self.complex.diff(n)) for n in range(1, top + 1)}
        for da in range(top + 1):
            for db in range(top + 1 - da):
                sign_b = 1 if da % 2 == 0 else -1
                for ia, ib in self.leibniz_pairs(da, db):
                    acc = {}
                    if da + db >= 1:
                        dcols = rcols[da + db]
                        for k, m1, c1 in times(da, ia, db, ib):
                            for i, m2, c2 in dcols.get(k, ()):
                                key = i, tuple(map(add, m1, m2))
                                acc[key] = acc.get(key, 0) + c1 * c2
                    if da >= 1:
                        for k, m1, c1 in lcols[da].get(ia, ()):
                            for i, m2, c2 in times(da - 1, k, db, ib):
                                key = i, tuple(map(add, m1, m2))
                                acc[key] = acc.get(key, 0) - c1 * c2
                    if db >= 1:
                        for k, m1, c1 in rcols[db].get(ib, ()):
                            c1 *= sign_b
                            for i, m2, c2 in times(da, ia, db - 1, k):
                                key = i, tuple(map(add, m1, m2))
                                acc[key] = acc.get(key, 0) - c1 * c2
                    if any(c % p for c in acc.values()):
                        raise InternalCheckError(
                            f"{self.label}Leibniz fails on basis pair ({da},{ia}) ({db},{ib})")

class DgAlgebra(DgModule):
    """A complex with unit and associative graded-commutative product: a dg
    module over itself, acting by its product.

    Subclasses implement the rule product_terms(da, ia, db, ib), with the
    triples of DgModule.action_terms in degree da+db; action_basis boxes it.
    """

    label = ""

    @property
    def algebra(self) -> DgAlgebra:
        return self

    @property
    def action_terms(self):
        # looked up on each read, so a patched product_terms takes effect
        return self.product_terms

    def product_terms(self, da, ia, db, ib) -> tuple:
        raise NotImplementedError


def _boxed(ring: PolyRing, terms) -> FreeModuleElement:
    """A rule's (position, monomial, coeff) triples as a FreeModuleElement."""
    coords = {}
    for i, m, c in terms:
        coords.setdefault(i, {})[m] = c
    return FreeModuleElement(ring, {i: Polynomial(ring, t) for i, t in coords.items()})


def bilinear(terms, da, va: FreeModuleElement, db, vb: FreeModuleElement) -> FreeModuleElement:
    """The basis rule terms(da, ia, db, ib) extended bilinearly to va, vb.

    Polynomial coefficients are central, so no Koszul signs enter; the sum
    is accumulated in place, term by term in the order of va and vb.
    """
    out = {}
    for ia, fa in va.coords.items():
        for ib, fb in vb.coords.items():
            base = terms(da, ia, db, ib)
            if not base:
                continue
            f = fa * fb
            for k, m, c in base:
                add_into(out, k, f.mul_term(m, c))
    return FreeModuleElement(va.ring, out)


def pairs_meeting_at_most_once(masks_a, masks_b):
    """Index pairs (ia, ib) of the subset bitmasks that share at most one index."""
    for ia, mS in enumerate(masks_a):
        for ib, mT in enumerate(masks_b):
            if (mS & mT).bit_count() <= 1:
                yield ia, ib


def _column_terms(mat: PolyMatrix) -> dict:
    """The columns of mat as {column: ((row, monomial, coeff), ...)}."""
    return {j: tuple((i, m, c) for i, f in col.items() for m, c in f.terms.items())
            for j, col in mat.columns.items()}


def _term_sums(terms, p: int) -> dict:
    """A rule's terms as {(position, monomial): coeff mod p}, zero sums dropped."""
    acc = {}
    for i, m, c in terms:
        acc[i, m] = acc.get((i, m), 0) + c
    return {key: c % p for key, c in acc.items() if c % p}


class TaylorComplex(DgAlgebra):
    """Taylor complex of a finite monomial list with its standard dg product;
    construction runs no check (taylor_module_fast_path runs them)."""

    def __init__(self, ring: PolyRing, monomials):
        if not monomials:
            raise ValueError("need at least one monomial")
        if any(len(m.terms) != 1 for m in monomials):
            raise ValueError("Taylor generators must be monomials")
        if len(monomials) > TAYLOR_GENERATOR_CAP:
            raise ResourceCapError(
                f"{len(monomials)} generators exceed the Taylor cap {TAYLOR_GENERATOR_CAP}")
        self.monomials = [m.lead_monomial() for m in monomials]
        # d(e_u) = c_u m_u for a generator c_u m_u: every d entry that drops u carries c_u
        units = [m.terms[u] for m, u in zip(monomials, self.monomials)]
        self.ringref = ring
        s = len(self.monomials)
        self.subsets = {n: sorted(combinations(range(s), n)) for n in range(s + 1)}
        # private tables keyed by the bitmask sum(1 << k for k in S)
        self._masks = {n: [sum(1 << k for k in S) for S in subs]
                       for n, subs in self.subsets.items()}
        self._index = {m: t for masks in self._masks.values() for t, m in enumerate(masks)}
        self._lcm = {0: (0,) * ring.nvars}
        for n in range(1, s + 1):
            for m in self._masks[n]:
                low = m & -m
                self._lcm[m] = mono_lcm(self._lcm[m ^ low], self.monomials[low.bit_length() - 1])

        def image(_n, S):
            m = sum(1 << k for k in S)
            lc = self._lcm[m]
            return {S[:k] + S[k + 1:]: ring.monomial(mono_div(lc, self._lcm[m ^ (1 << u)]),
                                                     units[u] if k % 2 == 0 else -units[u])
                    for k, u in enumerate(S)}

        self.complex, self.position = keyed_complex(
            ring, self.subsets, lambda _n, S: mono_deg(self._lcm[sum(1 << k for k in S)]), image)

    def leibniz_pairs(self, da, db):
        """Only the pairs with |S n T| <= 1; every other pair holds by construction.

        If |S n T| >= 2, then e_S * e_T = 0 (S, T not disjoint), so the left
        side d(e_S * e_T) is 0.  Every term of d(e_S) * e_T and of
        e_S * d(e_T) is a product e_(S\\u) * e_T or e_S * e_(T\\v); removing
        one index leaves the two sets still meeting, so each such product is
        0 by the same disjointness test, and the right side is 0 as well.
        """
        return pairs_meeting_at_most_once(self._masks.get(da, ()), self._masks.get(db, ()))

    def product_terms(self, da, ia, db, ib) -> tuple:
        mS = self._masks[da][ia]
        mT = self._masks[db][ib]
        if mS & mT:
            return ()
        mU = mS | mT
        lcm = self._lcm
        coeff = tuple(map(sub, map(add, lcm[mS], lcm[mT]), lcm[mU]))
        # shuffle sign: (-1)^#{(s, t) in S x T : t < s}
        inv = 0
        rest = mS
        while rest:
            low = rest & -rest
            inv += (mT & (low - 1)).bit_count()
            rest ^= low
        return ((self._index[mU], coeff, self.ringref.p - 1 if inv % 2 else 1),)
