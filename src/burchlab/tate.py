"""Free graded-commutative divided-power dg algebras and acyclic closures.

The underlying algebra is free on variables of positive degree: exterior
variables in odd degrees, divided-power variables in even degrees (basis
gamma_k(v), with gamma_a gamma_b = binom(a+b, a) gamma_{a+b} and
d(gamma_k(v)) = d(v) gamma_{k-1}(v)).  Basis monomials are tuples of
(variable, exponent) pairs; products carry the Koszul sign of interleaving
the odd variables.

acyclic_closure() builds a resolution of Q/I of this shape.  Its degree-1
variables kill a minimal generating list of I that the caller passes, in
order (the pipelines pass the job's list, the Burch data's generators), so
X_1 is aligned with that list; it then adjoins, degree by degree, variables
that kill a minimal generating set of the homology.  Freeness of the
underlying algebra is what the general-case syzygy cycles need: products
like e * f of basis variables stay basis monomials instead of degenerating.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .complexes import GradedFreeComplex, keyed_complex
from .errors import InternalCheckError, check_rank
from .groebner import Ideal, syzygies_of
from .matrices import FreeModuleElement, add_into
from .resolve import minimal_module_generators
from .ring import PolyRing
from .taylor import DgAlgebra, bilinear


class Generator(NamedTuple):
    """One adjoined generator: a Tate variable or a semifree generator."""

    degree: int          # homological degree
    internal: int        # internal (polynomial) degree
    diff: dict           # differential in basis keys of degree - 1


class AdjunctionEngine:
    """A complex free on basis keys, grown by adjoining generators that kill
    its homology degree by degree.

    TateAlgebra (keys: monomials in its variables) and SemifreeDgModule
    (keys: pairs (t, i), generator t times basis element i of X) extend it.
    Both keep their generators in one list of Generator records (_append).
    A subclass lists its keys through degree_cap (_keys_by_degree) and
    gives each key of degree d its internal degree (_key_internal_degree)
    and its differential in keys of degree d - 1 (_key_image).  The engine
    sorts each degree's keys into the basis, checks the total rank against
    the rank guard, and assembles the differentials with keyed_complex.
    The image of a key is computed once and kept while _image_source() is
    the same object: it depends only on the key and the generators in it,
    which adjoining never changes.  Positions do move, so keyed_complex
    maps the kept images to them at every assembly.
    """

    def __init__(self, ring: PolyRing, degree_cap: int):
        self._ring = ring
        self.degree_cap = degree_cap
        self.generators = []       # Generator records, in the order adjoined
        self._stale = True
        self._basis = None         # d -> sorted list of keys
        self._pos = None           # d -> {key: position}, from keyed_complex
        self._complex = None
        self._images = {}          # (d, key) -> image in keys of degree d - 1
        self._images_of = None     # the _image_source() the images were computed from

    @property
    def ring(self) -> PolyRing:
        return self._ring

    def _image_source(self):
        return None

    def _append(self, degree: int, internal: int, diff: dict):
        self.generators.append(Generator(degree, internal, diff))
        self._stale = True

    def _refresh(self):
        """Re-list the basis and assemble the differentials (keyed_complex)."""
        if not self._stale:
            return
        listing = self._keys_by_degree()
        check_rank(sum(map(len, listing.values())), type(self).__name__)
        self._basis = {d: sorted(keys) for d, keys in sorted(listing.items()) if keys}
        source = self._image_source()
        if self._images_of is not source:
            self._images, self._images_of = {}, source

        def image(d, key):
            img = self._images.get((d, key))
            if img is None:
                img = self._images[d, key] = self._key_image(d, key)
            return img

        self._complex, self._pos = keyed_complex(self.ring, self._basis,
                                                 self._key_internal_degree, image)
        self._stale = False

    @property
    def complex(self) -> GradedFreeComplex:
        self._refresh()
        return self._complex

    def position(self, d: int, key) -> int:
        self._refresh()
        return self._pos[d][key]

    def kill_homology(self, through: int, adjoin):
        """For d = 1..through-1: adjoin generators of degree d+1 whose
        differentials are minimal generators of H_d (homology_generators), by
        calls adjoin(d + 1, internal degree, differential in basis keys),
        then check that H_d is now 0 (check_adjunction).

        The check compares the complex the picks read with the one assembled
        after the round, and reuses Z_d and the echelons of the picks: a
        generator of degree d+1 occurs in no basis key of degree <= d, so the
        basis in degrees d and d-1 and d_d are the same before and after the
        round, and its keys of degree d+1 sort after the old ones, so d_(d+1)
        only gains columns (both compared exactly).  Every pick is a
        deterministic minimal-generator pick.  A failed check names the
        homology by the DgModule label: "homology" for X, "module homology"
        for Y.
        """
        for d in range(1, through):
            cx = self.complex
            picks, spans = homology_generators(cx, d)
            if not picks:
                continue
            keys, degrees = self._basis[d], cx.basis_degrees(d)
            for g in picks:
                adjoin(d + 1, g.degree(degrees), {keys[i]: f for i, f in g.coords.items()})
            check_adjunction(cx, self.complex, d, spans, f"{self.label}homology")


class TateAlgebra(AdjunctionEngine, DgAlgebra):
    """Free graded-commutative divided-power dg algebra over Q, degree-capped.
    Variable v is self.generators[v]; its differential is mono-keyed."""

    # -- monomial bookkeeping ---------------------------------------------

    def adjoin(self, degree: int, internal: int, diff: dict):
        """Add a variable of the given degrees with d(var) = diff (mono-keyed)."""
        if degree < 1:
            raise ValueError("variables must have positive degree")
        self._append(degree, internal, diff)

    def _keys_by_degree(self):
        # one variable at a time, with no recursion (a closure can have
        # thousands of them); _refresh sorts each degree
        cap = self.degree_cap
        by_degree = {d: [] for d in range(cap + 1)}
        by_degree[0].append(())
        for v, (vdeg, _, _) in enumerate(self.generators):
            max_e = 1 if vdeg % 2 == 1 else cap   # exterior or divided powers
            # downward, so no key takes v twice: new keys land above d
            for d in range(cap - vdeg, -1, -1):
                for e in range(1, min(max_e, (cap - d) // vdeg) + 1):
                    by_degree[d + e * vdeg] += [key + ((v, e),) for key in by_degree[d]]
        return by_degree

    def _key_internal_degree(self, _d, key) -> int:
        """Internal (polynomial) degree of a basis monomial: sum over factors of
        the internal degree of the variable."""
        return sum(e * self.generators[v].internal for v, e in key)

    # -- the product rule on monomial keys -----------------------------------

    def mul_keys(self, da, k1, db, k2) -> tuple:
        """The product of basis monomials k1 of degree da and k2 of degree db:
        ((product key, monomial 1, coeff),) with coeff in 1..p-1, or () when it
        vanishes or lies above the degree cap.  The coefficient is the Koszul
        sign of interleaving the odd variables times the divided-power
        binomials."""
        gens = self.generators
        odd1 = [v for v, e in k1 if gens[v].degree % 2 == 1]
        odd2 = [v for v, e in k2 if gens[v].degree % 2 == 1]
        if da + db > self.degree_cap or set(odd1) & set(odd2):
            return ()
        inv = sum(1 for u in odd1 for w in odd2 if w < u)
        coeff = -1 if inv % 2 else 1
        exps = dict(k1)
        for v, e in k2:
            if v in exps:
                coeff *= comb(exps[v] + e, e)
                exps[v] += e
            else:
                exps[v] = e
        c = coeff % self.ring.p
        if not c:
            return ()
        return ((tuple(sorted(exps.items())), (0,) * self.ring.nvars, c),)

    def _key_image(self, d, key) -> dict:
        """Differential of a basis monomial of degree d, mono-keyed.

        Leibniz: d(f1...fk) = sum_i (-1)^deg(prefix) f1..f_{i-1} d(f_i) f_{i+1}..fk
        with d(gamma_e(v)) = d(v) gamma_{e-1}(v).  Each term is evaluated as
        prefix * (d(v) * reduced-tail), the rule mul_keys extended to elements
        by taylor.bilinear, so every Koszul sign beyond the Leibniz prefactor
        comes from the rule.
        """
        out = {}
        ring = self.ring
        one = ring.one()
        prefix = ()
        prefix_deg = 0
        for t, (v, e) in enumerate(key):
            vdeg, _, dv = self.generators[v]
            rest = ((v, e - 1),) if vdeg % 2 == 0 and e >= 2 else ()
            tail = FreeModuleElement(ring, {rest + key[t + 1:]: one})
            inner = bilinear(self.mul_keys, vdeg - 1, FreeModuleElement(ring, dv),
                             d - prefix_deg - vdeg, tail)
            term = bilinear(self.mul_keys, prefix_deg, FreeModuleElement(ring, {prefix: one}),
                            d - prefix_deg - 1, inner)
            for k, f in term.coords.items():
                add_into(out, k, -f if prefix_deg % 2 else f)
            prefix += ((v, e),)
            prefix_deg += vdeg * e
        return out

    # -- positional interface (DgAlgebra) -----------------------------------

    def product_terms(self, da, ia, db, ib) -> tuple:
        self._refresh()
        hit = self.mul_keys(da, self._basis[da][ia], db, self._basis[db][ib])
        if not hit:
            return ()
        (key, m, c), = hit
        return ((self._pos[da + db][key], m, c),)


def homology_generators(cx: GradedFreeComplex, d: int):
    """Minimal Q-module generators of H_d(cx), as cycle elements of C_d, and
    the spans of their picks: per degree of a cycle generator, the echelon of
    m * Z_d + B_d before the picks and the cycle vectors
    (minimal_module_generators), for check_adjunction."""
    diff, spans = cx.diff(d), {}
    gens = syzygies_of([diff.column(j) for j in range(diff.cols)], diff.rows, cx.ring)
    if not gens:
        return [], spans
    up, degrees = cx.diff(d + 1), cx.basis_degrees(d + 1)
    picks = minimal_module_generators(gens, cx.basis_degrees(d), Ideal(cx.ring, []),
                                      extra_span=[(up.column(j), degrees[j])
                                                  for j in range(up.cols)],
                                      spans=spans)
    return picks, spans


def check_adjunction(before: GradedFreeComplex, after: GradedFreeComplex, d: int, spans: dict,
                     what: str = "homology"):
    """Raise InternalCheckError unless H_d(after) = 0, where after is before
    with new columns appended to d_(d+1) and spans are those of
    homology_generators(before, d).

    d_d and the grading of C_d and C_(d-1) are compared exactly (so Z_d is
    unchanged), and so are the old columns of d_(d+1) (so B_d is contained
    in the new boundaries).  The new columns are read from after and all
    their multiples go into each kept echelon, which then spans m * Z_d +
    B'_d in its degree, B'_d the boundaries of after: the span
    homology_generators(after, d) would build from scratch.  Every cycle
    generator must reduce to 0 in it.  The check uses spans up: their
    echelons take the new columns, and are dropped once it passes.

    before is the complex the picks read, not a copy of it: an assembled
    complex is never changed (AdjunctionEngine._refresh builds new matrices
    through keyed_complex), so before still holds the d_d and d_(d+1) the
    picks read.  For the same reason no check runs at pick time: comparing
    the d_d the picks read with the complex it was read from one line
    earlier could fail only for a caller handing in cycles of another
    complex, and homology_generators takes none.
    """
    diff, old = after.diff(d), before.diff(d)
    if ((diff.rows, diff.cols) != (old.rows, old.cols) or diff.columns != old.columns
            or after.basis_degrees(d) != before.basis_degrees(d)
            or after.basis_degrees(d - 1) != before.basis_degrees(d - 1)):
        raise InternalCheckError(f"d_{d} changed since its cycles were computed")
    diff, old = after.diff(d + 1), before.diff(d + 1)
    cols = old.cols
    if (diff.rows != old.rows or diff.cols < cols
            or {j: col for j, col in diff.columns.items() if j < cols} != old.columns):
        raise InternalCheckError(f"d_{d + 1} changed in its first {cols} columns "
                                 "since its cycles were computed")
    degrees = after.basis_degrees(d)
    new = [(v, v.degree(degrees)) for v in map(diff.column, range(cols, diff.cols)) if v.coords]
    for strand, ech, vectors in spans.values():
        strand.span(new, 0, ech)
        if any(ech.reduce(vec)[0] for vec in vectors):
            raise InternalCheckError(f"{what} at degree {d} survived adjunction")
    spans.clear()


def acyclic_closure(ring: PolyRing, gens, through: int) -> TateAlgebra:
    """Tate-style dg algebra resolution of Q/I, exact in degrees 1..through-1.

    gens is a minimal generating list of I; degree-1 exterior variable t
    kills gens[t], so X_1 is aligned with the list as given.  Each round
    then adjoins degree-(d+1) variables killing minimal generators of H_d
    and checks that H_d is now 0 (AdjunctionEngine.kill_homology).
    """
    alg = TateAlgebra(ring, degree_cap=through)
    for a in gens:
        alg.adjoin(1, a.degree(), {(): a})
    alg.kill_homology(through, alg.adjoin)
    alg.complex.check_dd_zero()
    return alg
