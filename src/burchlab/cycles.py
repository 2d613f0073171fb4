"""Burch cycles, the syzygy cycles they generate in bar resolutions, the
splitting criterion, and projection onto minimal resolutions.

From certified Burch data (a_j, x_i, s_i with a_{j_i} = x_i s_i) and a
resolution X of R aligned so that d(e_t) = a_t, the cycle for a pair
(i, j) is

    omega = x_j e_{j_i} - x_i (sum_l r_l e_l),   x_j s_i = sum_l r_l a_l,

with a preimage f in X_2.  In the dg bar resolution the elements

    rho = 1[f|e|...|e]psi(e) + 1[e f|e|...|e]psi(1)      (q >= 4 even)
    rho = 1[e f|e|...|e]psi(e)                           (q >= 5 odd)

for i < j < b, with psi(x) = x * y_0, are cycles after multiplication by
the socle lift s_i; in the minimal
A-infinity bar of a Golod module the simpler family s_j[f|e_{i_1}|..]y,
multiplied by the socle lift of the pair's larger index, works in every
degree q >= 3.  Splitting is certified by the boundary
criterion: d(rho) lies in n*G but not in BI*G, equivalently some socle
element s has s*d(rho) in I*G but outside n*I*G.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import comb

from .ainfty import AInfAlgebra
from .bar import BarComplex
from .burch import BurchData
from .complexes import GradedFreeComplex
from .errors import InputError, InternalCheckError
from .groebner import Ideal, lift_through, syzygies_of
from .linalg import SparseEchelon
from .matrices import FreeModuleElement, PolyMatrix, add_into
from .resolve import kernel_gens_over_R, minimal_module_generators
from .ring import Polynomial
from .taylor import DgAlgebra, bilinear


@dataclass
class BurchCycle:
    omega: FreeModuleElement   # cycle in X_1
    preimage: FreeModuleElement  # f in X_2 with d(f) = omega


@dataclass
class BurchCycleSet:
    data: BurchData
    cycles: dict = field(default_factory=dict)  # (i, j) -> BurchCycle, 0-based, i < j, i < b

    def pairs(self):
        """The Burch pairs i < j < b, the ones the theorems' cycles are built on."""
        return [p for p in sorted(self.cycles) if p[1] < self.data.b]


def burch_cycles(bd: BurchData, X: GradedFreeComplex) -> BurchCycleSet:
    """Construct omega and f for every pair i < j with i < b.

    X_1 must be aligned with bd.gens: column t of d_1 equals gens[t].
    Verifies: cycles, preimages, f not in n X_2, d(f) outside BI X_1 when
    j < b, and independence of the omegas in Z_1/n Z_1.
    """
    ring = bd.ideal.ring
    d1 = X.diff(1)
    gens_cols = [FreeModuleElement(ring, {0: g}) for g in bd.gens]
    if [d1.column(t) for t in range(d1.cols)] != gens_cols:
        raise InternalCheckError("X_1 basis is not aligned with the Burch generators")

    d2_cols = [X.diff(2).column(j) for j in range(X.rank(2))]
    out = BurchCycleSet(data=bd)
    n_lin = len(bd.xs)
    for i in range(bd.b):
        for j in range(i + 1, n_lin):
            xs_j, xs_i = bd.xs[j], bd.xs[i]
            s_i, ji = bd.socle_lifts[i], bd.j_indices[i]
            target = FreeModuleElement(ring, {0: xs_j * s_i})
            r = lift_through(gens_cols, 1, target, ring)
            if r is None:
                raise InternalCheckError("x_j * s_i failed to lift into I")
            omega = FreeModuleElement(ring, {ji: xs_j})
            for l, rl in r.coords.items():
                omega = omega - FreeModuleElement(ring, {l: xs_i * rl})
            if d1.apply(omega).coords:
                raise InternalCheckError("omega is not a cycle")
            f = lift_through(d2_cols, X.rank(1), omega, ring)
            if f is None:
                raise InternalCheckError("omega is not a boundary; X is not a resolution")
            if not f.is_reduced_nonzero_mod_max_ideal():
                raise InternalCheckError("preimage f lies in n X_2")
            out.cycles[(i, j)] = BurchCycle(omega=omega, preimage=f)

    # d(f) = omega avoids BI X_1 for the theorem pairs (both indices < b)
    BI = bd.burch_ideal
    for (i, j), cyc in out.cycles.items():
        if j < bd.b:
            if all(BI.contains(c) for c in cyc.omega.coords.values()):
                raise InternalCheckError(f"omega for pair {(i, j)} lies in BI X_1")

    # independence of the omegas in Z_1 / n Z_1; (n Z_1)_e is spanned by the
    # m * z, z a generator of Z_1 and m a monomial of degree e - deg z >= 1,
    # passed in the omegas' degrees e (minimal_module_generators spans an
    # extra element in its own degree only)
    z1 = syzygies_of([d1.column(t) for t in range(d1.cols)], 1, ring)
    degrees = X.basis_degrees(1)
    zero_ideal = Ideal(ring, [])
    monomials = zero_ideal.table().basis
    omegas = [cyc.omega for cyc in out.cycles.values()]
    n_z1 = [(z.mul_poly(ring.monomial(m)), e)
            for e in sorted({w.degree(degrees) for w in omegas}) for z in z1
            if e > z.degree(degrees) for m in monomials(e - z.degree(degrees))]
    kept = minimal_module_generators(omegas, degrees, zero_ideal, extra_span=n_z1)
    if len(kept) != len(omegas):
        raise InternalCheckError("Burch cycles are dependent modulo n Z_1")
    return out


def _expand(slots, ring):
    """Tensor expansion of (deg, element) slots into (basis refs, coefficient)."""
    combos = [((), ring.one())]
    for d, v in slots:
        nxt = []
        for refs, coeff in combos:
            for i, f in v.coords.items():
                nxt.append((refs + ((d, i),), coeff * f))
        combos = nxt
    return [(refs, c) for refs, c in combos if c]


def _bar_element(B: BarComplex, q: int, *terms) -> FreeModuleElement:
    """Element of B_q from signed tensors (sign, slots): slots = [(deg, element)]
    with the elements in X except the last, which is in Y."""
    total = {}   # word -> normal form mod I; a sum of normal forms is one
    red = B.quotient.normal_form
    for sign, slots in terms:
        for refs, c in _expand(slots, B.ring):
            add_into(total, refs, red(c if sign > 0 else -c))
    return FreeModuleElement(B.ring, {B.pos[q][w]: f for w, f in total.items()})


@dataclass
class RhoCycle:
    rho: FreeModuleElement     # basis-part element of B_q
    alpha: FreeModuleElement   # s_i * rho, a cycle


def _rho_cycle(B: BarComplex, q: int, label: str, rho, s) -> RhoCycle:
    """The RhoCycle with alpha = s * rho over R; raises unless d(alpha) = 0."""
    alpha = rho.map_coords(lambda c: B.quotient.normal_form(c * s))
    if B.complex.diff(q).apply(alpha).map_coords(B.quotient.normal_form).coords:
        raise InternalCheckError(f"alpha of {label} is not a cycle")
    return RhoCycle(rho=rho, alpha=alpha)


def rho_cycles_general(bcs: BurchCycleSet, B: BarComplex, q: int):
    """Theorem-A cycles in the dg bar resolution, for the pairs i < j < b.

    psi(e) = e * y_0 is B.mod.action_basis(1, 0, 0, 0), psi(1) = y_0 is
    basis element 0 of Y_0.  In even q the action terms s (f * psi(e)) and
    s ((e f) * psi(1)) of d(rho) carry the suspension signs (-1)^|f| = 1
    and (-1)^|ef| = -1, so both words enter with +1.
    """
    if not isinstance(B.alg, DgAlgebra):
        raise InputError("general-case cycles require the dg regime")
    if q < 4:
        raise InputError("general-case cycles need q >= 4 (odd: q >= 5)")
    ring = B.ring
    X = B.alg
    e_elt = FreeModuleElement.basis(ring, 0)
    psi_e = B.mod.action_basis(1, 0, 0, 0)
    psi_1 = FreeModuleElement.basis(ring, 0)
    out = []
    for (i, j) in bcs.pairs():
        f = bcs.cycles[(i, j)].preimage
        ef = bilinear(X.product_terms, 1, e_elt, 2, f)
        if q % 2 == 0:
            k = (q - 4) // 2
            rho = _bar_element(B, q, (1, [(2, f)] + [(1, e_elt)] * k + [(1, psi_e)]),
                               (1, [(3, ef)] + [(1, e_elt)] * k + [(0, psi_1)]))
        else:
            k = (q - 5) // 2
            if not ef.coords:
                raise InternalCheckError(
                    "e*f vanishes; the odd case needs a free-algebra resolution of R")
            rho = _bar_element(B, q, (1, [(3, ef)] + [(1, e_elt)] * k + [(1, psi_e)]))
        out.append(_rho_cycle(B, q, f"general q={q} pair={(i+1,j+1)}", rho,
                              bcs.data.socle_lifts[i]))
    return out


def rho_cycles_golod(bcs: BurchCycleSet, B: BarComplex, q: int):
    """Theorem-B cycles s_j [f_{x_j,x_i} | e_{i_1} | ... | e_{i_d}] y in the
    minimal A-infinity bar, for 1 <= i < j <= b; exactly C(b,2) m^d of them.

    The socle lift is s_j, that of the pair's larger index: with s_i, when
    the two lifts differ (I = (x^3, y^3, xy)), the cycles at q = 3 and 5
    do not survive the projection to the minimal bar."""
    if not isinstance(B.alg, AInfAlgebra):
        raise InputError("Golod cycles require the A-infinity regime")
    if q < 3:
        raise InputError("Golod cycles need q >= 3")
    if not B.alg.complex.is_minimal() or not B.mod.complex.is_minimal():
        raise InputError("Golod cycles need minimal X and Y")
    ring = B.ring
    d, r = divmod(q - 3, 2)
    if B.mod.complex.rank(r) == 0:
        raise InputError(f"Y has no basis in degree {r}")
    m = B.alg.complex.rank(1)
    out = []
    for (i, j) in bcs.pairs():
        f = bcs.cycles[(i, j)].preimage
        for tup in product(range(m), repeat=d):
            slots = ([(2, f)] + [(1, FreeModuleElement.basis(ring, t)) for t in tup]
                     + [(r, FreeModuleElement.basis(ring, 0))])
            out.append(_rho_cycle(B, q, f"golod q={q} pair={(i+1,j+1)} e={tup}",
                                  _bar_element(B, q, (1, slots)), bcs.data.socle_lifts[j]))
    expected = comb(bcs.data.b, 2) * (m ** d)
    if len(out) != expected:
        raise InternalCheckError(f"emitted {len(out)} cycles, expected {expected}")
    # independence modulo m B_q: unit coordinate parts must have full rank
    ech = SparseEchelon(ring.p)
    for rec in out:
        vec = {t: c.constant_coeff() for t, c in rec.rho.coords.items() if c.constant_coeff()}
        piv, _ = ech.insert(vec)
        if piv is None:
            raise InternalCheckError("Golod cycles are dependent modulo m B_q")
    return out


@dataclass
class SplitVerdict:
    kind: str                 # "splits" | "zero_boundary" | "fails"
    witness: Polynomial | None
    reason: str
    boundary_coeffs_in_BI: bool

    @property
    def ok(self) -> bool:
        return self.kind in ("splits", "zero_boundary")


def splitting_check(rho: FreeModuleElement, diff: PolyMatrix, bd: BurchData) -> SplitVerdict:
    """The direct-summand criterion for an element of a free module.

    rho must be part of a basis (nonzero modulo n F); its boundary must lie
    in n G but escape BI G, equivalently some socle element s has
    s d(rho) in I G but not in n I G.  Both formulations are evaluated and
    must agree.
    """
    if not rho.is_reduced_nonzero_mod_max_ideal():
        raise InputError("rho lies in m F; it is not part of a basis")
    w = diff.apply(rho)
    if not w.coords:
        return SplitVerdict("zero_boundary", None, "boundary vanishes identically", False)
    for c in w.coords.values():
        if c.constant_coeff():
            return SplitVerdict("fails", None, "boundary has a unit coefficient", False)
    BI = bd.burch_ideal
    outside_BI = any(not BI.contains(c) for c in w.coords.values())
    witness = None
    for s in bd.socle_gens:
        if any(bd.nI.normal_form(s * c) for c in w.coords.values()):
            witness = s
            break
    if (witness is not None) != outside_BI:
        raise InternalCheckError("socle-witness and BI-membership tests disagree")
    if witness is not None:
        return SplitVerdict("splits", witness, "boundary escapes BI G", False)
    return SplitVerdict("fails", None,
                        "s d(rho) in n I G for every socle witness", True)


@dataclass
class ProjectionCertificate:
    nonzero: bool
    killed_by_m: bool
    outside_m_kernel: bool


def project_to_minimal(ctr, cycles, quotient: Ideal, q: int):
    """Project cycles through a contraction of the bar complex and certify
    each image as a k-summand generator of ker(d_q) of the minimal complex.

    The direct test: u generates a k-summand of K iff m u = 0 and u is
    nonzero in K/mK.  u is reduced against the echelon of (mK)_d at its
    degree d that kernel_gens_over_R built when it picked K's generators.
    Returns (certificates, survivor count = rank of the projected span
    modulo m K).
    """
    ring = quotient.ring
    small = ctr.small
    proj = ctr.proj_at(q)
    red = quotient.normal_form
    gen_degrees = small.basis_degrees(q)
    _, strands = kernel_gens_over_R(small.diff(q), quotient)

    certs = []
    residual_rank = SparseEchelon(ring.p)
    for rec in cycles:
        v = proj.apply(rec.alpha).map_coords(red)
        nonzero = bool(v.coords)
        killed = True
        outside = False
        if nonzero:
            for g in ring.maximal_ideal_gens():
                if v.mul_poly(g).map_coords(red).coords:
                    killed = False
                    break
            # sanity: the projection is still a cycle
            if small.diff(q).apply(v).map_coords(red).coords:
                raise InternalCheckError("projected element is not a cycle")
        if nonzero and killed:
            dsum = v.degree(gen_degrees)
            strand, ech, _ = strands[dsum]   # v is a nonzero cycle, so K_dsum != 0
            res, _ = ech.reduce(strand.vector(v.coords))
            outside = bool(res)
            if outside:
                # survivor count = rank of the projected span modulo m K
                residual_rank.insert({(dsum, t): c for t, c in res.items()})
        certs.append(ProjectionCertificate(
            nonzero=nonzero, killed_by_m=killed, outside_m_kernel=outside))
    return certs, residual_rank.rank
