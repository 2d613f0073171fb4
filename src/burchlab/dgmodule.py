"""Dg module resolutions Y of an R-module M over a dg algebra resolution X.

The split map psi: X -> Y of the Theorem-A cycles is the action on Y's
first generator y_0, psi(x) = x * y_0, read through the action rule.  As
d(y_0) = 0, psi is a chain map wherever the module Leibniz law holds on
the pairs (x, y_0): the fast path checks them through the top degree
of Y's minimal model, and the semifree differential
(SemifreeDgModule._key_image) is that law by construction.

Two constructions:

* build_semifree_resolution(): start from Y(0) = X tensor Q^a lifting a
  presentation Q^a ->> M, adjoin generators killing the relations, then
  keep adjoining generators that kill homology degree by degree.

* taylor_module_fast_path(): when M = R/J is cyclic with monomial J whose
  generator list starts with the minimal generating list of I that the
  caller passes (the pipelines pass the job's list, so X_1 is aligned
  with the Burch generators), the Taylor complex of the J-list is itself a
  dg algebra containing the Taylor complex of I as a subalgebra.  Y's
  product is read only as the action of X, and the A-infinity transfer
  reads products only through the top degrees of the minimal models, so
  the checks are d^2 = 0 and the unit laws on X and Y in full, and the
  Leibniz laws of X and of the action of X on Y through those degrees.
"""

from __future__ import annotations

from .contraction import minimalize
from .errors import InternalCheckError
from .matrices import add_into
from .resolve import ModulePresentation
from .ring import PolyRing
from .taylor import DgAlgebra, DgModule, TaylorComplex, pairs_meeting_at_most_once
from .tate import AdjunctionEngine


class SemifreeDgModule(AdjunctionEngine, DgModule):
    """X-semifree module with generator basis (t, i) = (generator, algebra basis).
    Generator t is self.generators[t]; d(g_t) is in basis pairs (t', i') of Y."""

    def __init__(self, algebra: DgAlgebra, degree_cap: int):
        super().__init__(algebra.ring, degree_cap)  # no basis above degree_cap
        self.algebra = algebra

    def add_generator(self, hom_degree: int, int_degree: int, diff: dict):
        self._append(hom_degree, int_degree, diff)

    def _keys_by_degree(self):
        # pairs sort by (t, i), and a new generator gets the next t, so
        # adjoining appends pairs at the end of each degree
        X = self.algebra.complex
        basis = {}
        for t, (gdeg, _, _) in enumerate(self.generators):
            for d in range(min(X.top(), self.degree_cap - gdeg) + 1):
                basis.setdefault(d + gdeg, []).extend((t, i) for i in range(X.rank(d)))
        return basis

    def _image_source(self):
        # images read X's differential and product: a new X complex drops them
        return self.algebra.complex

    def _key_internal_degree(self, n, key) -> int:
        t, i = key
        gdeg, internal, _ = self.generators[t]
        return self.algebra.complex.basis_degrees(n - gdeg)[i] + internal

    def _key_image(self, n, key) -> dict:
        """d(b_i (x) g_t) = d(b_i) (x) g_t + (-1)^|b_i| b_i * d(g_t), in pairs."""
        t, i = key
        X, gens = self.algebra.complex, self.generators
        gdeg, _, diff = gens[t]
        d = n - gdeg
        out = {}
        if d >= 1:
            for i2, f in X.diff(d).columns.get(i, {}).items():
                add_into(out, (t, i2), f)
        sign = -1 if d % 2 else 1
        for (t2, i2), g in diff.items():
            d2 = gdeg - 1 - gens[t2].degree
            for i3, m, c in self.algebra.product_terms(d, i, d2, i2):
                add_into(out, (t2, i3), g.mul_term(m, sign * c))
        return out

    def action_terms(self, dx, ix, ny, iy) -> tuple:
        self._refresh()
        t, i = self._basis[ny][iy]
        terms = self.algebra.product_terms(dx, ix, ny - self.generators[t].degree, i)
        if not terms:
            return ()
        pos = self._pos[dx + ny]
        return tuple((pos[t, i2], m, c) for i2, m, c in terms)


def build_semifree_resolution(pres: ModulePresentation, algebra: DgAlgebra, up_to: int):
    """Semifree dg X-module resolution Y of M to homological degree up_to.

    Y(0) = X^a already has H_0 = M once generators killing the relation
    columns are adjoined (the ideal I is hit by X_1 acting on Y_0); higher
    homology is killed degree by degree with fresh generators whose
    boundaries are the deterministic minimal homology generators
    (AdjunctionEngine.kill_homology).

    What up_to gives: every generator of degree <= up_to (rounds n =
    1..up_to-1 adjoin those of degree n+1), H_n(Y) = 0 checked for
    1 <= n <= up_to-1, and a basis enumerated through degree up_to + 1.
    That top degree holds pairs of the lower generators only, none of its
    own: Y_(up_to+1) and H_up_to(Y) are not those of a resolution.
    """
    Y = SemifreeDgModule(algebra, degree_cap=up_to + 1)
    for gdeg in pres.gen_degrees:
        Y.add_generator(0, gdeg, {})
    # relation killers in homological degree 1, on the pairs (r, unit of X)
    for v in pres.relations:
        Y.add_generator(1, v.degree(pres.gen_degrees), {(r, 0): f for r, f in v.coords.items()})
    Y.kill_homology(up_to, Y.add_generator)
    return Y


class TaylorDgModule(DgModule):
    """Taylor complex of a monomial list as a dg module over the Taylor
    complex of a prefix sublist."""

    def __init__(self, sub: TaylorComplex, full: TaylorComplex):
        self.algebra = sub
        self.full = full
        self.complex = full.complex

    def action_terms(self, dx, ix, ny, iy) -> tuple:
        # X's bitmasks are Y's on the prefix: e_S of X is Y's e_S of the same mask
        full = self.full
        return full.product_terms(dx, full._index[self.algebra._masks[dx][ix]], ny, iy)

    def leibniz_pairs(self, dx, ny):
        """Only the pairs with |S n T| <= 1, by TaylorComplex.leibniz_pairs's
        argument: the action is Y's product, which is 0 on sets that meet.

        X's bitmasks are Y's on the prefix, since the base comes first in Y's list.
        """
        return pairs_meeting_at_most_once(self.algebra._masks.get(dx, ()),
                                          self.full._masks.get(ny, ()))


def taylor_module_fast_path(ring: PolyRing, gens, extra_gens):
    """Y = Taylor(gens + extra monomial gens) over X = Taylor(gens), with
    the contractions of X and Y onto their minimal models.

    gens is the minimal generating list of a monomial ideal I, in order, as
    for TaylorComplex(ring, gens); resolves R/(extra)R = Q/(I + extra).
    Returns (X, Y, ctr_x, ctr_y): Y is the TaylorDgModule, ctr_x and ctr_y
    are minimalize(X.complex) and minimalize(Y.complex), of tops t_X and t_Y.

    Checks run, in full: d^2 = 0 on X and Y (minimalize reads every
    differential) and the unit laws, X's two-sided and the module's 1*c = c.
    Leibniz runs on X through max(t_X, t_Y) and on the pairs of X x Y
    meeting in at most one index through t_Y, the pairs (x, y_0 = e_(empty
    set)) among them: a pair (a, c) with |a| + |c| = n reads the products
    landing in degrees n and n - 1, so these are all the products that the
    A-infinity transfer on the minimal models reads (AInfAlgebra,
    AInfModule):
    * an n-ary op whose output degree sum(d) + n - 2 exceeds the top of its
      minimal complex is 0 unread, and along the transfer tree degrees never
      decrease: lambda on a slot interval of length k has degree
      sum(d) + k - 2, the homotopy adds 1, and each product lands in the sum
      of its factors' degrees, at most the output degree;
    * so a module op reads the action of X on Y in degrees <= t_Y, and X's
      product on its x-slot intervals in degrees <= t_Y as well; an algebra
      op reads X's product in degrees <= t_X.
    ctr_y is not truncated: its small complex is the minimal Q-resolution
    of M, so t_Y <= nvars (Hilbert's syzygy theorem).  Y's own product is
    read only through action_terms, whose left factor lies in X, so
    products e_S * e_T of Y with S not in the base are not checked; a
    caller reading products above those degrees checks them itself.
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
    Y = TaylorComplex(ring, [*gens, *map(ring.monomial, extra)])
    mod = TaylorDgModule(X, Y)
    for structure in (X, mod):
        structure.complex.check_dd_zero()
        structure.check_unit()
    ctr_x, ctr_y = minimalize(X.complex), minimalize(Y.complex)
    t_y = ctr_y.small.top()
    X.check_leibniz(through=max(ctr_x.small.top(), t_y))
    mod.check_leibniz(through=t_y)
    return X, mod, ctr_x, ctr_y
