"""Burch ideal, Burch index, and certified Burch generator data.

For a surjection Q -> R = Q/I with I inside the square of the irrelevant
maximal ideal n, the Burch ideal is BI = In : (I : n) and the Burch index
is dim_k n/BI.  Since n^2 <= BI always, the index is computed on linear
parts alone.  burch_data produces the witness tuple behind the index: a
minimal generating set a_1..a_m of I, linear forms x_1..x_b independent
mod BI, and socle lifts s_i with a_{j_i} = x_i * s_i exactly.

minimal_generators is the one choice of minimal generators of an ideal,
resolve.minimal_module_generators over Q.  burch_data starts from its list
and may adapt a generator to x_i * s_i; the pipelines build every
resolution of R on the list it returns, so d(e_t) = a_t in X_1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, InternalCheckError
from .groebner import Ideal, Strand, maximal_ideal
from .linalg import SparseEchelon
from .matrices import FreeModuleElement
from .resolve import minimal_module_generators
from .ring import (PolyRing, Polynomial, mono_deg, mono_div, mono_divides,
                   monomials_of_degree, poly_sort_key)


def minimal_generators(gens, ring: PolyRing):
    """Greedy subset of gens whose images form a basis of I/nI.

    Input generators must be homogeneous.  The selection is
    resolve.minimal_module_generators over Q on the gens as elements of Q^1
    in ascending grevlex order, so it runs degree by degree and the result
    is deterministic.
    """
    gens = [g for g in gens if g]
    for g in gens:
        if not g.is_homogeneous():
            raise InputError(f"inhomogeneous generator {g}")
    elements = [FreeModuleElement(ring, {0: g}) for g in sorted(gens, key=poly_sort_key)]
    return [v.coords[0] for v in minimal_module_generators(elements, [0], Ideal(ring, []))]


def _linear_part_echelon(I: Ideal):
    """Echelon of the degree-1 piece of an ideal, coordinates = variables."""
    ech = SparseEchelon(I.ring.p)
    for g in I.groebner():
        if g and g.degree() == 1:
            vec = {m.index(1): c for m, c in g.terms.items() if mono_deg(m) == 1}
            ech.insert(vec)
    return ech


def check_in_square(I: Ideal):
    for g in I.gens:
        if not g.is_homogeneous():
            raise InputError(f"inhomogeneous ideal generator {g}")
        # n^2 is spanned by the monomials of degree >= 2: homogeneous g is in it iff deg g >= 2
        if g and g.degree() < 2:
            raise InputError(f"generator {g} is not in the square of the maximal ideal")
    if not I.is_proper():
        raise InputError("ideal is not proper")


def burch_ideal(I: Ideal) -> Ideal:
    """BI = In : (I : n); returns n itself when I : n = I (depth > 0 or I = 0)."""
    check_in_square(I)
    ring = I.ring
    n = maximal_ideal(ring)
    soc = I.colon(n)
    if soc == I:
        return n
    BI = I.product(n).colon(soc)
    n2 = n.product(n)
    if not BI.contains_ideal(n2):
        raise InternalCheckError("n^2 not contained in the Burch ideal")
    return BI


def burch_index(I: Ideal, BI: Ideal | None = None) -> int:
    """dim_k n/BI, read off from linear parts since n^2 <= BI.

    BI is the Burch ideal of I when the caller already has it.
    """
    if BI is None:
        BI = burch_ideal(I)
    return I.ring.nvars - _linear_part_echelon(BI).rank


def _linear_colon_dim(nI: Ideal, soc_gens) -> int:
    """dim_k of the linear forms l with l * s in nI for every s in soc_gens."""
    ring = nI.ring
    ech = SparseEchelon(ring.p)
    for i in range(ring.nvars):
        vec = {}
        for j, s in enumerate(soc_gens):
            for m, c in nI.normal_form(ring.var(i) * s).terms.items():
                vec[j, m] = c
        ech.insert(vec)
    return ring.nvars - ech.rank


@dataclass
class BurchData:
    """Certified witness for the Burch index.

    gens: minimal generators a_1..a_m of I (possibly rescaled/adapted so
      the factorizations below are exact equalities).
    xs: linear forms spanning n/n^2; the first b are independent mod BI.
    socle_lifts: s_1..s_b in (I : n) with gens[j_indices[i]] = xs[i]*s_i.
    nI: the product n*I, kept so its R-table is built once per ideal.
    socle_gens: minimal generators of (I : n) taken from its reduced
      Groebner basis, so they are monic and do not depend on how the colon
      was computed, in the order minimal_generators returns them
      (splitting_check takes the first witness in this order).
    """

    ideal: Ideal
    burch_ideal: Ideal
    socle: Ideal
    gens: list
    xs: list
    socle_lifts: list
    j_indices: list
    b: int
    nI: Ideal
    socle_gens: list

    def verify(self):
        """Re-check every invariant by membership tests and linear algebra.

        The Burch ideal is checked without computing the colon nI : soc
        again.  The colon and the stored BI both contain n^2 (n soc <= I
        gives n^2 soc <= nI) and lie in n (soc is not inside nI, as soc
        contains I != 0), so they are equal iff their linear parts are: BI_1 * soc <= nI and
        dim BI_1 equals the dimension of all linear forms l with
        l * soc <= nI.
        """
        I, ring = self.ideal, self.ideal.ring
        n = maximal_ideal(ring)
        BI = self.burch_ideal
        soc = I.colon(n)
        nI = n.product(I)
        if not (soc == self.socle and nI == self.nI and Ideal(ring, self.socle_gens) == soc):
            raise InternalCheckError("stored socle/nI ideals disagree with recomputation")
        lin_bi = [g for g in BI.groebner() if g.degree() == 1]
        if not (BI.is_proper()
                and all(BI.contains(ring.monomial(m)) for m in monomials_of_degree(ring.nvars, 2))
                and all(nI.contains(g * s) for g in lin_bi for s in self.socle_gens)
                and len(lin_bi) == _linear_colon_dim(nI, self.socle_gens)):
            raise InternalCheckError("stored Burch ideal is not nI : (I : n)")
        if (Ideal(ring, self.gens) != I
                or len(minimal_generators(self.gens, ring)) != len(self.gens)):
            raise InternalCheckError("stored generators do not generate I minimally")
        # xs: first b independent mod BI, all n independent mod n^2
        ech_bi = _linear_part_echelon(BI)
        ech_lin = SparseEchelon(ring.p)
        for i, x in enumerate(self.xs):
            if x.degree() != 1:
                raise InternalCheckError(f"x candidate {x} is not linear")
            vec = {m.index(1): c for m, c in x.terms.items()}
            if i < self.b:
                if BI.contains(x):
                    raise InternalCheckError(f"{x} lies in the Burch ideal")
                piv, _ = ech_bi.insert(dict(vec))
                if piv is None:
                    raise InternalCheckError("x's are dependent modulo the Burch ideal")
            piv, _ = ech_lin.insert(dict(vec))
            if piv is None:
                raise InternalCheckError("x's are dependent modulo n^2")
        # factorizations
        for i in range(self.b):
            s, j = self.socle_lifts[i], self.j_indices[i]
            if not soc.contains(s):
                raise InternalCheckError(f"socle lift {s} not in (I : n)")
            if self.xs[i] * s != self.gens[j]:
                raise InternalCheckError(f"factorization a[{j}] = x_{i} * s_{i} is not exact")
        return True


def _coordinates(prod, gens, q_table) -> dict:
    """Nonzero c_j with prod = sum c_j a_j modulo nI, solved over Q_d by
    monomials in the degree d of prod."""
    ring = prod.ring
    d = prod.degree()
    strand = Strand(q_table, [0], d)
    ech = strand.span([(FreeModuleElement(ring, {0: a}), a.degree()) for a in gens], 1,
                      SparseEchelon(ring.p, track_reps=True))
    for j, a in enumerate(gens):
        if a.degree() == d:
            ech.insert(strand.vector({0: a}), {j: 1})
    coeffs = ech.solve(strand.vector({0: prod}))
    if coeffs is None:
        raise InternalCheckError("x*s not expressible over the generators")
    return {j: c for j, c in coeffs.items() if c}


def _exact_lifts(x, gens, soc) -> list:
    """The pairs (s, j) with x * s == gens[j] exactly and s in soc = (I : n),
    s = gens[j] / x, in ascending grevlex order of s."""
    (xm, _), = x.terms.items()
    lifts = []
    for j, a in enumerate(gens):
        if all(mono_divides(xm, m) for m in a.terms):
            s = Polynomial(a.ring, {mono_div(m, xm): c for m, c in a.terms.items()})
            if soc.contains(s):
                lifts.append((s, j))
    return sorted(lifts, key=lambda lift: poly_sort_key(lift[0]))


def _distinct_choice(options: list, taken: tuple = ()):
    """The first choice of one (s, j) from each list of options, the j
    pairwise distinct and not in taken (the first list's pick first); None
    when there is none."""
    if not options:
        return []
    for s, j in options[0]:
        if j not in taken:
            rest = _distinct_choice(options[1:], taken + (j,))
            if rest is not None:
                return [(s, j)] + rest
    return None


def _adapt_or_share(x, soc_min, gens, soc, taken, q_table):
    """(s, j) for x when the x's have no exact factorizations onto distinct
    generators, s scaled so that x * s is to become gens[j]:
    * an exact factorization onto a generator not in taken;
    * else the first socle generator s whose product x * s carries, over
      gens modulo nI, a generator not in taken, and the smallest such j
      (gens[j] := x * s is an invertible change);
    * else the first exact factorization, onto a taken generator (shared)."""
    exact = _exact_lifts(x, gens, soc)
    for s, j in exact:
        if j not in taken:
            return s, j
    for s in soc_min:
        prod = x * s
        coords = _coordinates(prod, gens, q_table) if prod else {}
        j = min((jj for jj in coords if jj not in taken), default=None)
        if j is not None:
            return s.scale(x.ring.inv(coords[j])), j
    if exact:
        return exact[0]
    raise InternalCheckError(f"no exact factorization for {x}; adaptation conflict or bug")


def burch_data(I: Ideal, BI: Ideal | None = None) -> BurchData:
    """Deterministic certified Burch data; requires burch_index(I) >= 1.

    BI is the Burch ideal of I when the caller already has it.

    The x candidates are scanned in variable order.  An exact factorization
    x*s = a_j is s = a_j / x with s in (I : n); the x's take exact
    factorizations onto pairwise distinct generators, the first such choice
    in ascending grevlex order of the lifts (x_1's pick first).  When there
    is none, each x in turn takes an exact factorization onto a generator no
    earlier x has taken; failing that, it adapts the generating set by
    replacing an untaken generator that x*s carries modulo nI with x*s, s
    the first minimal generator of (I : n) in ascending grevlex order with
    such a product (an invertible change, keeping the factorization an exact
    equality); failing that, it shares the generator of an exact
    factorization with an earlier x, as when n * (I : n) reaches fewer than
    b generators of I modulo nI.
    """
    ring = I.ring
    n = maximal_ideal(ring)
    if BI is None:
        BI = burch_ideal(I)
    soc = I.colon(n)
    b = burch_index(I, BI)
    if b < 1:
        raise InputError("burch_data requires Burch index >= 1")

    gens = list(minimal_generators(I.gens, ring))

    # choose xs: variables independent mod BI first (b of them), then extend
    # by the remaining variables to a basis of n/n^2
    ech_bi = _linear_part_echelon(BI)
    burch_vars, other_vars = [], []
    for i in range(ring.nvars):
        vec = {i: 1}
        piv, _ = ech_bi.insert(dict(vec))
        if piv is not None and len(burch_vars) < b:
            burch_vars.append(i)
        else:
            other_vars.append(i)
    assert len(burch_vars) == b, "variables must span n/BI since they span n/n^2"
    xs = [ring.var(i) for i in burch_vars + other_vars]

    socle_gens = minimal_generators(soc.groebner(), ring)
    soc_min = sorted(socle_gens, key=poly_sort_key)
    nI = n.product(I)
    q_table = Ideal(ring, []).table()

    picks = _distinct_choice([_exact_lifts(x, gens, soc) for x in xs[:b]])
    if picks is None:
        picks = []
        for x in xs[:b]:
            s, j = _adapt_or_share(x, soc_min, gens, soc, [j for _, j in picks], q_table)
            gens[j] = x * s
            picks.append((s, j))
    socle_lifts = [s for s, _ in picks]
    j_indices = [j for _, j in picks]

    data = BurchData(
        ideal=I,
        burch_ideal=BI,
        socle=soc,
        gens=gens,
        xs=xs,
        socle_lifts=socle_lifts,
        j_indices=j_indices,
        b=b,
        nI=nI,
        socle_gens=socle_gens,
    )
    data.verify()
    return data
