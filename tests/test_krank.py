import random

import pytest

from burchlab.groebner import Ideal
from burchlab.krank import krank_strand, syzygy_presentation, theorem_verdicts
from burchlab.matrices import FreeModuleElement
from burchlab.oracle import krank_brute_force, krank_gb, total_dim_bound
from burchlab.resolve import ModulePresentation, resolve_over_R
from burchlab.ring import PolyRing, monomials_of_degree

P = 32003


def all_paths(pres, cap=600):
    return (krank_gb(pres), krank_strand(pres), krank_brute_force(pres, dim_cap=cap))


def test_residue_field(m2_ideal):
    k = ModulePresentation.residue_field(m2_ideal)
    assert all_paths(k) == (1, 1, 1)


def test_free_module_has_no_k_summand(m2_ideal, bione_ideal):
    for I in (m2_ideal, bione_ideal):
        assert all_paths(ModulePresentation.free(I, [0])) == (0, 0, 0)
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
    rep = theorem_verdicts(bione_ideal, resolve_over_R(M, 9), 8, burch_idx=1, mu=3, golod=False)
    assert all(r.krank == 0 for r in rep.rows)
    assert all(r.bound_general is None and r.bound_golod is None for r in rep.rows)
    assert rep.all_ok()


def test_verdict_bounds_m2(m2_ideal):
    k = ModulePresentation.residue_field(m2_ideal)
    rep = theorem_verdicts(m2_ideal, resolve_over_R(k, 9), 8, burch_idx=2, mu=3, golod=True)
    for row in rep.rows:
        assert row.krank == 2 ** row.index
        if row.index >= 5:
            assert row.bound_general == 1
        if row.index >= 4:
            assert row.bound_golod == 3 ** ((row.index - 4) // 2)
    assert rep.all_ok()
