import gc
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from burchlab.groebner import Ideal, RTable
from burchlab.krank import theorem_verdicts
from burchlab.matrices import FreeModuleElement
from burchlab.resolve import ModulePresentation, resolve_over_R
from burchlab.ring import PolyRing, monomials_of_degree
from support.oracle import (krank_brute_force, krank_gb, krank_strand, syzygy_presentation,
                            total_dim_bound)

P = 32003


def all_paths(pres, cap=600):
    return (krank_gb(pres), krank_strand(pres), krank_brute_force(pres, dim_cap=cap))


def test_residue_field(m2_ideal):
    k = ModulePresentation.residue_field(m2_ideal)
    assert all_paths(k) == (1, 1, 1)


def test_free_module_has_no_k_summand(m2_ideal, bione_ideal):
    for I in (m2_ideal, bione_ideal):
        assert all_paths(ModulePresentation(I.ring, I, [0], [])) == (0, 0, 0)
        assert all_paths(ModulePresentation.cyclic(I, [])) == (0, 0, 0)


def test_k_plus_free(m2_ideal):
    R = m2_ideal.ring
    pres = ModulePresentation(R, m2_ideal, [0, 0],
                              [FreeModuleElement(R, {0: R.parse("x")}),
                               FreeModuleElement(R, {0: R.parse("y")})])
    assert all_paths(pres) == (1, 1, 1)


def test_syzygy_krank_power(m2_ideal):
    k = ModulePresentation.residue_field(m2_ideal)
    res = resolve_over_R(k, 6)
    sp = syzygy_presentation(res, 5, m2_ideal)
    assert krank_strand(sp) == 32
    assert krank_brute_force(sp, dim_cap=2000) == 32


def random_presentation(rng, I, max_gens=2, max_rels=2):
    R = I.ring
    a = rng.randint(1, max_gens)
    degs = [rng.randint(0, 1) for _ in range(a)]
    rels = []
    for _ in range(rng.randint(0, max_rels)):
        d = rng.randint(1, 2)
        coords = {}
        for i in range(a):
            if rng.random() < 0.7:
                need = d - degs[i]
                monos = monomials_of_degree(R.nvars, need)
                if monos:
                    coords[i] = R.monomial(rng.choice(monos), rng.randint(1, P - 1))
        if coords:
            rels.append(FreeModuleElement(R, coords))
    return ModulePresentation(R, I, degs, rels)


def test_krank_cross_validation_random(m2_ideal, bione_ideal, jn_ideal):
    # the three routes must agree on a corpus of random small modules
    rng = random.Random(20260809)
    ideals = [m2_ideal, bione_ideal, jn_ideal]
    checked = 0
    while checked < 50:
        I = rng.choice(ideals)
        pres = random_presentation(rng, I)
        if total_dim_bound(pres) > 60:
            continue
        a = krank_gb(pres)
        b = krank_strand(pres)
        c = krank_brute_force(pres, dim_cap=120)
        assert a == b == c, (I.gens, pres.gen_degrees, a, b, c)
        checked += 1


def test_krank_additivity_under_direct_sum(m2_ideal):
    # krank(k^d (+) N) = d + krank(N) on explicit block presentations
    rng = random.Random(7)
    R = m2_ideal.ring
    carried = 0
    for _ in range(20):
        N = random_presentation(rng, m2_ideal)
        base = krank_strand(N)
        d = rng.randint(1, 3)
        degs = list(N.gen_degrees) + [0] * d
        rels = [FreeModuleElement(R, dict(v.coords)) for v in N.relations]
        for t in range(d):
            idx = len(N.gen_degrees) + t
            rels.append(FreeModuleElement(R, {idx: R.parse("x")}))
            rels.append(FreeModuleElement(R, {idx: R.parse("y")}))
        total = ModulePresentation(R, m2_ideal, degs, rels)
        assert krank_strand(total) == base + d
        carried += 1
    assert carried == 20


def test_negative_control_verdicts(bione_ideal):
    R = bione_ideal.ring
    M = ModulePresentation.cyclic(bione_ideal, [R.parse("x^2"), R.parse("y")])
    rep = theorem_verdicts(resolve_over_R(M, 9), 8, burch_idx=1, mu=3, golod=False)
    assert all(r.krank == 0 for r in rep.rows)
    assert all(r.bound_general is None and r.bound_golod is None for r in rep.rows)
    assert rep.all_ok()


def test_verdict_bounds_m2(m2_ideal):
    k = ModulePresentation.residue_field(m2_ideal)
    rep = theorem_verdicts(resolve_over_R(k, 9), 8, burch_idx=2, mu=3, golod=True)
    for row in rep.rows:
        assert row.krank == 2 ** row.index
        if row.index >= 5:
            assert row.bound_general == 1
        if row.index >= 4:
            assert row.bound_golod == 3 ** ((row.index - 4) // 2)
    assert rep.all_ok()


# -- the route the pipelines use: krank(syz_i) read off the strands that picked
# syz_i's generators (resolve_over_R's kranks, krank.syzygy_krank); the tests
# keep the name "image route" of the route it replaced --------------------------

R2 = PolyRing(P, ("x", "y"))
R3 = PolyRing(P, ("x", "y", "z"))
# (ring, generators of I, Gorenstein).  Over the Gorenstein quotients here the
# syzygies of the cyclic modules tested below have their socles inside mN and
# k-rank 0; every other quotient gives some nonzero k-rank there.
QUOTIENTS = [
    (R2, ["x^2", "x*y", "y^2"], False),
    (R2, ["x^4", "x^2*y", "y^2"], False),
    (R2, ["x^4", "x^3 + x^2*y", "x^2 + 2*x*y + y^2"], False),   # the last one, y -> x + y
    (R2, ["x^2 + x*y", "x*y^2", "y^3"], False),
    (R2, ["x^2 - y^2", "x*y"], True),
    (R2, ["x^2 + 3*x*y", "y^3"], True),
    # (x^2 - yz, y^2 - xz, z^2 - xy) is not Artinian, since (1,1,1) lies on it
    (R3, ["x^2 - y*z", "y^2 - x*z", "z^2"], True),               # Hilbert function 1,3,3,1
    (R3, ["x^2 - y^2", "y^2 - z^2", "x*y", "x*z", "y*z"], True),  # Hilbert function 1,3,1
]


@st.composite
def minimal_presentations(draw):
    """A presentation over a monomial or non-monomial Artinian quotient whose
    relation entries all lie in m: no constant entry is drawn, so the
    resolution is minimal and the CLI would accept it."""
    ring, gens, _ = draw(st.sampled_from(QUOTIENTS))
    I = Ideal(ring, [ring.parse(g) for g in gens])
    degs = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))
    rels = []
    for _ in range(draw(st.integers(0, 3))):
        d = max(degs) + draw(st.integers(1, 2))
        coords = {}
        for i, gd in enumerate(degs):
            monos = monomials_of_degree(ring.nvars, d - gd)   # degree >= 1
            terms = draw(st.lists(st.tuples(st.sampled_from(monos), st.integers(0, P - 1)),
                                  max_size=2))
            f = ring.zero()
            for m, c in terms:
                f = f + ring.monomial(m, c)
            if f:
                coords[i] = f
        if coords:
            rels.append(FreeModuleElement(ring, coords))
    return ModulePresentation(ring, I, degs, rels)


def check_image_route(pres, through=3) -> list:
    """k-ranks of syz_1..syz_through as resolve_over_R reads them, each
    checked against krank_strand and, when small enough,
    krank_brute_force, on the presentation coker(d_(i+1))."""
    I = pres.quotient
    res = resolve_over_R(pres, through + 1)
    out = []
    for i in range(1, min(through, res.top()) + 1):
        sp = syzygy_presentation(res, i, I)
        got = res.kranks[i - 1]
        assert got == krank_strand(sp), (i, got)
        if total_dim_bound(sp) <= 150:
            assert got == krank_brute_force(sp, dim_cap=150), (i, got)
        out.append(got)
    return out


def stuck_strand_example():
    """syz_1 has k-rank 1; krank_strand read 0 while it reduced x_j * u
    modulo N only down to the first non-pivot index (representatives that
    are not canonical, so a kernel that is too small)."""
    I = Ideal(R2, [R2.parse(g) for g in ("x^4", "x^3 + x^2*y", "x^2 + 2*x*y + y^2")])
    y, xy, y2 = (R2.parse(g) for g in ("y", "x*y", "y^2"))
    return ModulePresentation(R2, I, [0, 0], [FreeModuleElement(R2, {0: y, 1: y}),
                                              FreeModuleElement(R2, {1: y2}),
                                              FreeModuleElement(R2, {0: xy})])


@settings(max_examples=60, deadline=None)
@given(pres=minimal_presentations())
@example(pres=stuck_strand_example())
def test_image_route_agrees_with_the_presentation_routes(pres):
    check_image_route(pres)


@pytest.mark.parametrize("ring, gens, gorenstein", QUOTIENTS)
def test_image_route_on_cyclic_modules(ring, gens, gorenstein):
    I = Ideal(ring, [ring.parse(g) for g in gens])
    kranks = [check_image_route(ModulePresentation.cyclic(I, [ring.parse(t) for t in extra]))
              for extra in (["x", "y", "z"][:ring.nvars], ["x"], ["x + y"])]
    assert any(any(row) for row in kranks) != gorenstein


def test_image_route_on_a_planted_wrong_socle(monkeypatch):
    # k over (x,y)^2: syz_1 = m = k(-1)^2 and syz_2 = k(-2)^4, every vector
    # of R_1 is a socle vector
    I = Ideal(R2, [R2.parse(g) for g in ("x^2", "x*y", "y^2")])
    k = ModulePresentation.residue_field(I)
    assert resolve_over_R(k, 2).kranks == [2, 4]
    real = RTable.socle
    monkeypatch.setattr(RTable, "socle", lambda table, e: real(table, e)[:-1])
    # F_1 = R(-1)^2 loses one socle vector per summand in degree 2
    assert resolve_over_R(k, 2).kranks == [1, 2]


def test_socle_cache_lives_on_the_table():
    # a cache keyed by id(table) handed (x,y)^2's socle to the next table
    # allocated at the same address: krank(syz_1) of k over (x,y,z)^2 read 2
    def syz1_krank(ring):
        I = Ideal(ring, [a * b for a in ring.maximal_ideal_gens()
                         for b in ring.maximal_ideal_gens()])
        return resolve_over_R(ModulePresentation.residue_field(I), 1).kranks[0]

    assert syz1_krank(PolyRing(P, ("x", "y"))) == 2
    gc.collect()
    assert syz1_krank(PolyRing(P, ("x", "y", "z"))) == 3


def test_socle_of_a_non_monomial_quotient():
    # (x^2 - y^2, xy) is Gorenstein with socle x^2 = y^2 in degree 2
    I = Ideal(R2, [R2.parse("x^2 - y^2"), R2.parse("x*y")])
    table = I.table()
    assert [len(table.socle(e)) for e in range(4)] == [0, 0, 1, 0]
