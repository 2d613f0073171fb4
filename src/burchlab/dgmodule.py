"""Dg module resolutions Y of an R-module M over a dg algebra resolution X,
with a degreewise split dg-module map psi: X -> Y.

Two constructions:

* SemifreeDgModule.build(): start from Y(0) = X tensor Q^a lifting a
  presentation Q^a ->> M, adjoin generators killing the relations, then
  keep adjoining generators that kill homology degree by degree.  psi is
  the inclusion of the first ambient coordinate.

* taylor_module_fast_path(): when M = R/J is cyclic with monomial J whose
  generator list starts with the minimal generating list of I that the
  caller passes (the pipelines pass the job's list, so X_1 is aligned
  with the Burch generators), the Taylor complex of the J-list is itself a
  dg algebra containing the Taylor complex of I as a subalgebra; psi is
  the basis inclusion.  Y's product is read only as the action of X, so
  the checks are X's full dg-algebra checks, d^2 = 0 on Y, and the module
  unit and Leibniz laws on X x Y.
"""

from __future__ import annotations

from .complexes import ChainMap, GradedFreeComplex
from .errors import InternalCheckError, ResourceCapError
from .matrices import FreeModuleElement, PolyMatrix, add_into
from .resolve import ModulePresentation
from .ring import PolyRing
from .taylor import DgAlgebra, DgModule, TaylorComplex, bilinear, pairs_meeting_at_most_once
from .tate import CycleSpace, homology_cycle_generators


class SemifreeDgModule(DgModule):
    """X-semifree module with generator basis (t, i) = (generator, algebra basis)."""

    @property
    def ring(self):
        return self.algebra.ring

    def __init__(self, algebra: DgAlgebra, degree_cap: int | None = None):
        self.algebra = algebra
        self.degree_cap = degree_cap    # drop basis above this homological degree
        self.gen_hom_degrees = []       # homological degree of each generator
        self.gen_int_degrees = []       # internal degree label
        self.gen_diffs = []             # FreeModuleElement in Y_{deg-1}, or None
        self._stale = True
        self._basis = None              # n -> list of (t, i) with i in X_{n - gdeg_t}
        self._pos = None
        self._complex = None
        self._columns = {}              # (t, i, n) -> coordinates of d(b_i (x) g_t)
        self._columns_of = None         # the algebra complex those columns were read from

    def add_generator(self, hom_degree: int, int_degree: int, diff: FreeModuleElement | None):
        self.gen_hom_degrees.append(hom_degree)
        self.gen_int_degrees.append(int_degree)
        self.gen_diffs.append(diff)
        self._stale = True

    def _refresh(self):
        """Re-list the basis and assemble the differentials.

        A column, once computed, is kept: positions never move.  Pairs are
        sorted by (t, i) and a new generator gets the next t, so adjoining
        only appends pairs at the end of each degree; d(b (x) g_t) lies in
        the pairs of g_t and of the generators before it, whose positions
        are unchanged.  Only a new algebra complex invalidates the columns.
        """
        if not self._stale:
            return
        X = self.algebra.complex
        ring = self.ring
        top = X.top() + max(self.gen_hom_degrees, default=0)
        if self.degree_cap is not None:
            top = min(top, self.degree_cap)
        basis = {}
        for t, gdeg in enumerate(self.gen_hom_degrees):
            for d in range(X.top() + 1):
                n = d + gdeg
                if n > top:
                    continue
                for i in range(X.rank(d)):
                    basis.setdefault(n, []).append((t, i))
        # (t, i) with t ascending keeps earlier positions stable across adjoins
        self._basis = {n: sorted(pairs) for n, pairs in basis.items()}
        self._pos = {n: {pair: a for a, pair in enumerate(pairs)}
                     for n, pairs in self._basis.items()}
        # basis tables are ready; differential assembly below may re-enter
        # through action_basis, which only needs those tables
        self._stale = False
        degrees = {}
        for n, pairs in self._basis.items():
            degs = []
            for (t, i) in pairs:
                d = n - self.gen_hom_degrees[t]
                degs.append(X.basis_degrees(d)[i] + self.gen_int_degrees[t])
            degrees[n] = degs
        if self._columns_of is not X:
            self._columns, self._columns_of = {}, X
        columns = self._columns
        diffs = {}
        for n in sorted(self._basis):
            if n == 0:
                continue
            mat = PolyMatrix(ring, degrees.get(n - 1, []), degrees[n])
            for a, (t, i) in enumerate(self._basis[n]):
                col = columns.get((t, i, n))
                if col is None:
                    col = columns[t, i, n] = self._diff_pair(t, i, n).coords
                if col:
                    mat.columns[a] = dict(col)
            diffs[n] = mat
        self._complex = GradedFreeComplex(ring, degrees, diffs)

    def _diff_pair(self, t, i, n) -> FreeModuleElement:
        """d(b (x) g_t) = d(b) (x) g_t + (-1)^|b| b * d(g_t), in Y_(n-1) coords."""
        X = self.algebra.complex
        ring = self.ring
        d = n - self.gen_hom_degrees[t]
        out = {}
        if d >= 1:
            for i2, f in X.diff(d).columns.get(i, {}).items():
                add_into(out, self._pos[n - 1][(t, i2)], f)
        gd = self.gen_diffs[t]
        if gd is not None and gd.coords:
            gdeg = self.gen_hom_degrees[t]
            term = bilinear(self.action_basis, d, FreeModuleElement.basis(ring, i), gdeg - 1, gd)
            for b, f in term.coords.items():
                add_into(out, b, -f if d % 2 == 1 else f)
        return FreeModuleElement(ring, out)

    @property
    def complex(self) -> GradedFreeComplex:
        self._refresh()
        return self._complex

    def position(self, n: int, pair) -> int:
        self._refresh()
        return self._pos[n][pair]

    def action_basis(self, dx, ix, ny, iy) -> FreeModuleElement:
        self._refresh()
        t, i = self._basis[ny][iy]
        d = ny - self.gen_hom_degrees[t]
        prod = self.algebra.product_basis(dx, ix, d, i)
        out = {}
        for i2, f in prod.coords.items():
            out[self._pos[dx + ny][(t, i2)]] = f
        return FreeModuleElement(self.ring, out)


def build_semifree_resolution(pres: ModulePresentation, algebra: DgAlgebra,
                              up_to: int, *, rank_guard: int):
    """Semifree dg X-module resolution of M to homological degree up_to,
    with the split dg-module map psi: X -> first-coordinate component.

    Y(0) = X^a already has H_0 = M once generators killing the relation
    columns are adjoined (the ideal I is hit by X_1 acting on Y_0); higher
    homology is killed degree by degree with fresh generators whose
    boundaries are the deterministic minimal homology generators.

    What up_to gives: every generator of degree <= up_to (rounds n =
    1..up_to-1 adjoin those of degree n+1), H_n(Y) = 0 checked for
    1 <= n <= up_to-1, and a basis enumerated through degree up_to + 1.
    That top degree holds pairs of the lower generators only, none of its
    own: Y_(up_to+1) and H_up_to(Y) are not those of a resolution.

    After each round the check that H_n is now 0
    (CycleSpace.check_adjunction) reuses Z_n and the echelons of the picks:
    generators of degree n+1 only add pairs of degree >= n+1, so Y_n,
    Y_(n-1) and d_n are the same before and after, and d_(n+1) only gains
    columns at the end (both compared exactly).  rank_guard bounds the
    total rank of Y before each round.
    """
    Y = SemifreeDgModule(algebra, degree_cap=up_to + 1)
    for r, gdeg in enumerate(pres.gen_degrees):
        Y.add_generator(0, gdeg, None)
    # relation killers in homological degree 1
    for v in pres.relations:
        Y._refresh()
        coords = {Y.position(0, (r, 0)): f for r, f in v.coords.items()}
        target = FreeModuleElement(Y.ring, coords)
        Y.add_generator(1, v.degree(pres.gen_degrees), target)
    for n in range(1, up_to):
        cx = Y.complex
        if sum(cx.rank(t) for t in range(cx.top() + 1)) > rank_guard:
            raise ResourceCapError(f"semifree module rank guard {rank_guard} exceeded")
        cycles = CycleSpace(cx, n)
        gens = homology_cycle_generators(cx, n, cycles)
        for g in gens:
            Y.add_generator(n + 1, g.degree(cx.basis_degrees(n)), g)
        if gens:
            cycles.check_adjunction(Y.complex, "module homology")
    Y._refresh()
    psi = psi_inclusion(Y)
    return Y, psi


def psi_inclusion(Y: SemifreeDgModule) -> ChainMap:
    """The split inclusion X -> Y onto the X-span of the first ambient generator."""
    X = Y.algebra.complex
    maps = {}
    for d in range(X.top() + 1):
        if X.rank(d) == 0:
            continue
        n = d + Y.gen_hom_degrees[0]
        if Y.degree_cap is not None and n > Y.degree_cap:
            continue
        m = PolyMatrix(Y.ring, Y.complex.basis_degrees(n), X.basis_degrees(d))
        for i in range(X.rank(d)):
            m.set_entry(Y.position(n, (0, i)), i, Y.ring.one())
        maps[d] = m
    return ChainMap(X, Y.complex, maps)


class TaylorDgModule(DgModule):
    """Taylor complex of a monomial list as a dg module over the Taylor
    complex of a prefix sublist (psi = subset inclusion of bases)."""

    def __init__(self, sub: TaylorComplex, full: TaylorComplex, prefix_len: int):
        self.algebra = sub
        self.full = full
        self.prefix_len = prefix_len
        self.complex = full.complex

    def action_basis(self, dx, ix, ny, iy) -> FreeModuleElement:
        # prefix indices embed identically into the full Taylor basis
        S = self.algebra.subsets[dx][ix]
        return self.full.product_basis(dx, self.full.position[dx][S], ny, iy)

    def leibniz_pairs(self, dx, ny):
        """Only the pairs with |S n T| <= 1, by TaylorComplex.leibniz_pairs's
        argument: the action is Y's product, which is 0 on sets that meet.

        X's bitmasks are Y's on the prefix, since the base comes first in Y's list.
        """
        return pairs_meeting_at_most_once(self.algebra._masks.get(dx, ()),
                                          self.full._masks.get(ny, ()))


def taylor_module_fast_path(ring: PolyRing, gens, extra_gens):
    """Y = Taylor(gens + extra monomial gens) over X = Taylor(gens).

    gens is the minimal generating list of a monomial ideal I, in order, as
    for TaylorComplex(ring, gens); resolves R/(extra)R = Q/(I + extra).
    Returns (X, Y, psi) with psi the basis inclusion.

    Checks run: X's d^2 = 0, two-sided unit and Leibniz laws (AInfAlgebra
    reads X's product); Y's d^2 = 0 (minimalize reads Y's differential);
    the module laws 1*c = c and Leibniz on the pairs of X x Y meeting in at
    most one index; psi a chain map.  Y's own product is read only through
    action_basis, whose left factor lies in X, so products e_S * e_T of Y
    with S not in the base are not checked.
    """
    if not all(len(g.terms) == 1 for g in [*gens, *extra_gens]):
        raise InternalCheckError("fast path needs monomial generators")
    base = [g.lead_monomial() for g in gens]
    extra = []   # monic: M = R/(extra) whatever their coefficients
    for g in extra_gens:
        m = g.lead_monomial()
        if m not in base and m not in extra:
            extra.append(m)
    X = TaylorComplex(ring, gens)
    Y = TaylorComplex(ring, [*gens, *extra], verify=False)
    Y.complex.check_dd_zero()
    mod = TaylorDgModule(X, Y, len(gens))
    mod.check_unit()
    mod.check_leibniz()
    maps = {}
    for d in range(X.complex.top() + 1):
        m = PolyMatrix(ring, Y.complex.basis_degrees(d), X.complex.basis_degrees(d))
        for i, S in enumerate(X.subsets[d]):
            m.set_entry(Y.position[d][S], i, ring.one())
        maps[d] = m
    psi = ChainMap(X.complex, Y.complex, maps)
    psi.check_chain_map()
    return X, mod, psi
