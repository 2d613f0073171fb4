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

from .complexes import GradedFreeComplex, place_columns
from .errors import InternalCheckError, check_rank
from .groebner import Ideal, syzygies_of
from .matrices import FreeModuleElement, PolyMatrix, add_into
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
    A subclass lists its keys through a degree (_keys_by_degree) and gives
    each key of degree d its internal degree (_key_internal_degree) and its
    differential in keys of degree d - 1 (_key_image).

    The complex grows append-only (_through): a degree is assembled once,
    its keys sorted, when a reader first needs it, and a later listing may
    only add keys to the top assembled degree, after its old ones.  So each
    key is placed and imaged once, and its image depends only on the key
    and the generators in it, which adjoining never changes.  A round at d
    adjoins generators of degree d + 1 with the top at d + 1: they occur in
    no key of lower degree, and their keys of degree d + 1 sort last.  Any
    other change raises InternalCheckError.  Each growth returns a new
    GradedFreeComplex sharing the matrices it leaves alone, so an assembled
    complex is never changed.
    """

    def __init__(self, ring: PolyRing, degree_cap: int):
        self._ring = ring
        self.degree_cap = degree_cap
        self.generators = []       # Generator records, in the order adjoined
        self._listed = None        # len(generators) when C_0..C_top were listed
        self._top = -1
        self._basis = {}           # d -> sorted keys, nonempty degrees d <= _top
        self._pos = {}             # d -> {key: position}
        self._complex = None

    @property
    def ring(self) -> PolyRing:
        return self._ring

    def _append(self, degree: int, internal: int, diff: dict):
        self.generators.append(Generator(degree, internal, diff))

    def _through(self, top: int) -> GradedFreeComplex:
        """The complex on the keys of degree <= top, grown from the last one.

        The keys are listed again through top and each degree sorted.  A
        degree above the last top is assembled; the last top may gain keys
        after its old ones, whose columns are appended to a new d_top that
        keeps the old column dicts; any other change to an assembled degree
        raises InternalCheckError.
        """
        if top <= self._top and self._listed == len(self.generators):
            return self._complex
        top = max(top, self._top)
        listing = self._keys_by_degree(top)
        check_rank(sum(map(len, listing.values())), type(self).__name__)
        cx = self._complex
        degrees, diffs = (dict(cx.degrees), dict(cx.diffs)) if cx else ({}, {})
        for n in range(top + 1):
            keys, old = sorted(listing.get(n, ())), self._basis.get(n, [])
            if keys == old:
                continue
            if n < self._top or keys[:len(old)] != old:
                raise InternalCheckError(
                    f"keys of degree {n} changed after it was assembled: only the top "
                    f"degree {self._top} may gain keys, after its old ones")
            new = keys[len(old):]
            self._basis[n] = keys
            self._pos.setdefault(n, {}).update((key, j) for j, key in enumerate(new, len(old)))
            degrees[n] = degrees.get(n, []) + [self._key_internal_degree(n, key) for key in new]
            if n:
                mat = PolyMatrix(self.ring, degrees.get(n - 1, []), degrees[n])
                mat.columns = dict(diffs[n].columns) if n in diffs else {}
                place_columns(mat, n, new, self._pos.get(n - 1, {}), self._key_image, len(old))
                diffs[n] = mat
        self._top, self._listed = top, len(self.generators)
        self._complex = GradedFreeComplex(self.ring, degrees, diffs)
        return self._complex

    @property
    def complex(self) -> GradedFreeComplex:
        return self._through(self.degree_cap)

    def position(self, d: int, key) -> int:
        self._through(d)
        return self._pos[d][key]

    def kill_homology(self, through: int, adjoin):
        """For d = 1..through-1: adjoin generators of degree d+1 whose
        differentials are minimal generators of H_d (homology_generators), by
        calls adjoin(d + 1, internal degree, differential in basis keys),
        then check that H_d is now 0 (check_adjunction).

        The picks read the complex through d + 1, and the check reads the one
        grown from it by the round's generators: the same d_d and the same
        old columns of d_(d+1), with one new column per pick appended
        (_through).  Every pick is a deterministic minimal-generator pick.
        A failed check names the homology by the DgModule label: "homology"
        for X, "module homology" for Y.
        """
        for d in range(1, through):
            cx = self._through(d + 1)
            picks, spans = homology_generators(cx, d)
            if not picks:
                continue
            keys, degrees = self._basis[d], cx.basis_degrees(d)
            for g in picks:
                adjoin(d + 1, g.degree(degrees), {keys[i]: f for i, f in g.coords.items()})
            check_adjunction(self._through(d + 1), d, cx.rank(d + 1), spans,
                             f"{self.label}homology")


class TateAlgebra(AdjunctionEngine, DgAlgebra):
    """Free graded-commutative divided-power dg algebra over Q, degree-capped.
    Variable v is self.generators[v]; its differential is mono-keyed."""

    # -- monomial bookkeeping ---------------------------------------------

    def adjoin(self, degree: int, internal: int, diff: dict):
        """Add a variable of the given degrees with d(var) = diff (mono-keyed)."""
        if degree < 1:
            raise ValueError("variables must have positive degree")
        self._append(degree, internal, diff)

    def _keys_by_degree(self, top):
        # one variable at a time, with no recursion (a closure can have
        # thousands of them); _through sorts each degree
        by_degree = {d: [] for d in range(top + 1)}
        by_degree[0].append(())
        for v, (vdeg, _, _) in enumerate(self.generators):
            max_e = 1 if vdeg % 2 == 1 else top   # exterior or divided powers
            # downward, so no key takes v twice: new keys land above d
            for d in range(top - vdeg, -1, -1):
                for e in range(1, min(max_e, (top - d) // vdeg) + 1):
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
        self._through(self.degree_cap)
        hit = self.mul_keys(da, self._basis[da][ia], db, self._basis[db][ib])
        if not hit:
            return ()
        (key, m, c), = hit
        return ((self._pos[da + db][key], m, c),)


def homology_generators(cx: GradedFreeComplex, d: int):
    """Minimal Q-module generators of H_d(cx), as cycle elements of C_d, and
    the spans of their picks: per degree e of a cycle generator, the echelon
    of (m * Z_d + B_d)_e before the picks and the cycle vectors
    (minimal_module_generators), for check_adjunction.

    The strand at e is spanned by m * (generators of Z_d), deg m >= 1, and
    the boundary columns of degree exactly e: B_d lies in Z_d, so every
    multiple m * b with deg m >= 1 lies in m * Z_d already.  B_d lies in Z_d
    because cx is a complex, which holds by construction (the Leibniz rule
    on keys and every generator's boundary a cycle); acyclic_closure checks
    d o d = 0 at the end, and the bar over Y checks it on its strands.
    """
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


def check_adjunction(cx: GradedFreeComplex, d: int, old_cols: int, spans: dict,
                     what: str = "homology"):
    """Raise InternalCheckError unless H_d(cx) = 0, where cx is the complex
    a round of adjunction grew, columns old_cols and on of d_(d+1) are the
    round's new generators, and spans are those of homology_generators on
    the complex the picks read.

    cx shares d_d and the first old_cols column dicts of d_(d+1) with that
    complex, and has its grading of C_d and C_(d-1), as the engine's growth
    (AdjunctionEngine._through) only appends keys to its top degree d + 1
    and places nothing again.  So Z_d is the one the picks read, and B_d
    lies in B'_d, the boundaries of cx.
    The new columns are read from cx, and d_d must map each of them to 0,
    composed over Q on those columns only (as few as the round's picks).
    So B'_d lies in Z_d, and each kept echelon, of degree e, takes the new
    columns of degree exactly e: it then spans (m * Z_d + B'_d)_e, as a
    multiple m * b' with deg m >= 1 lies in m * Z_d already.  That is the
    span homology_generators(cx, d) would build from scratch.  Every cycle
    generator must reduce to 0 in it.  The check uses spans up: their
    echelons take the new columns, and are dropped once it passes.
    """
    up, degrees, down = cx.diff(d + 1), cx.basis_degrees(d), cx.diff(d)
    new = [(v, v.degree(degrees)) for v in map(up.column, range(old_cols, up.cols)) if v.coords]
    if any(down.apply(v).coords for v, _ in new):
        raise InternalCheckError(f"a new column of d_{d + 1} is not a cycle")
    for e, (strand, ech, vectors) in spans.items():
        strand.span([(v, dg) for v, dg in new if dg == e], 0, ech)
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
