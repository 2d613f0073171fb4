import pytest

from burchlab.ainfty import AInfAlgebra, AInfModule
from burchlab.bar import BarComplex
from burchlab.burch import burch_data, minimal_generators
from burchlab.contraction import minimalize
from burchlab.complexes import GradedFreeComplex
from burchlab.cycles import (RhoCycle, burch_cycles, project_to_minimal, rho_cycles_general,
                             rho_cycles_golod, splitting_check)
from burchlab.dgmodule import build_semifree_resolution, taylor_module_fast_path
from burchlab.errors import InputError, InternalCheckError
from burchlab.groebner import Ideal
from burchlab.matrices import FreeModuleElement, PolyMatrix
from burchlab.resolve import ModulePresentation
from burchlab.taylor import TaylorComplex

P = 32003


@pytest.fixture(scope="module")
def bione_data(bione_ideal):
    bd = burch_data(bione_ideal)
    X = TaylorComplex(bione_ideal.ring, bd.gens)
    return bd, X, burch_cycles(bd, X.complex)


def test_bione_burch_cycle_formula(bione_data):
    bd, X, bcs = bione_data
    R = X.ring
    # the single pair extends x by the independent linear form y; the cycle
    # is y e_2 - x^2 e_1 over the generators (y^2, x^2 y, x^4); with b = 1
    # it is an extension pair, not a Burch pair i < j < b
    assert list(bcs.cycles) == [(0, 1)]
    assert bcs.pairs() == []
    cyc = bcs.cycles[(0, 1)]
    assert cyc.omega == FreeModuleElement(R, {1: R.parse("y"), 0: R.parse("-x^2")})
    assert X.complex.diff(2).apply(cyc.preimage) == cyc.omega
    assert cyc.preimage.is_reduced_nonzero_mod_max_ideal()


def test_bione_splitting_fails_for_every_witness(bione_data):
    bd, X, bcs = bione_data
    verdict = splitting_check(bcs.cycles[(0, 1)].preimage, X.complex.diff(2), bd)
    assert verdict.kind == "fails"
    assert verdict.boundary_coeffs_in_BI
    assert verdict.witness is None


def test_m2_burch_cycles(m2_ideal):
    bd = burch_data(m2_ideal)
    X = TaylorComplex(m2_ideal.ring, bd.gens)
    bcs = burch_cycles(bd, X.complex)
    assert bcs.pairs() == [(0, 1)]
    R = m2_ideal.ring
    cyc = bcs.cycles[(0, 1)]
    assert X.complex.diff(1).apply(cyc.omega) == FreeModuleElement(R, {})


def test_misaligned_x1_is_an_internal_error(m2_ideal):
    # every pipeline builds X_1 on the Burch generators, so a misaligned X_1
    # is a program fault, not bad input
    bd = burch_data(m2_ideal)
    for gens in (bd.gens[::-1], bd.gens[:2]):
        with pytest.raises(InternalCheckError, match="X_1"):
            burch_cycles(bd, TaylorComplex(m2_ideal.ring, gens).complex)


def test_splitting_check_reuses_the_stored_nI(m2_ideal, monkeypatch):
    bd = burch_data(m2_ideal)
    X = TaylorComplex(m2_ideal.ring, bd.gens)
    cyc = burch_cycles(bd, X.complex).cycles[(0, 1)]

    def no_product(self, other):
        raise AssertionError("splitting_check rebuilt an ideal product")

    monkeypatch.setattr(Ideal, "product", no_product)
    verdict = splitting_check(cyc.preimage, X.complex.diff(2), bd)
    assert verdict.kind == "splits" and verdict.witness is not None


def test_splitting_zero_boundary_mode(m2_ideal, bione_data):
    bd, X, _ = bione_data
    R = m2_ideal.ring
    # a genuine cycle of the X-level differential: zero boundary reported
    v = FreeModuleElement(R, {0: R.one()})
    import burchlab.matrices as mats
    zero = mats.PolyMatrix(R, [0], [3])
    verdict = splitting_check(v, zero, bd)
    assert verdict.kind == "zero_boundary"
    assert verdict.ok


def test_a_boundary_with_a_unit_coefficient_does_not_split(m2_ideal):
    # d(rho) = 1 * e_0: a unit lies outside BI, so only the unit test keeps
    # this boundary from being reported as splitting
    bd = burch_data(m2_ideal)
    R = m2_ideal.ring
    unit = PolyMatrix(R, [0], [0])
    unit.columns[0] = {0: R.one()}
    verdict = splitting_check(FreeModuleElement.basis(R, 0), unit, bd)
    assert (verdict.kind, verdict.reason) == ("fails", "boundary has a unit coefficient")
    assert not verdict.ok


def test_splitting_precondition(m2_ideal):
    bd = burch_data(m2_ideal)
    X = TaylorComplex(m2_ideal.ring, bd.gens)
    R = m2_ideal.ring
    with pytest.raises(InputError):
        splitting_check(FreeModuleElement(R, {0: R.parse("x")}), X.complex.diff(2), bd)


@pytest.fixture(scope="module")
def m2_dg_bar(m2_ideal):
    bd = burch_data(m2_ideal)
    X = TaylorComplex(m2_ideal.ring, bd.gens)
    k = ModulePresentation.residue_field(m2_ideal)
    Y = build_semifree_resolution(k, X, up_to=8)
    B = BarComplex(X, Y, m2_ideal, cap=7)
    bcs = burch_cycles(bd, X.complex)
    return bd, B, bcs


def test_general_cycles_even_q(m2_dg_bar):
    bd, B, bcs = m2_dg_bar
    for q in (4, 6):
        recs = rho_cycles_general(bcs, B, q)
        assert len(recs) == 1
        for rec in recs:
            # cycle property is verified inside the constructor; re-check here
            assert not B.complex.diff(q).apply(rec.alpha).map_coords(
                B.quotient.normal_form).coords
            verdict = splitting_check(rec.rho, B.complex.diff(q), bd)
            assert verdict.kind == "splits"
            assert str(verdict.witness) == "y"


def test_general_cycle_projection_measured(m2_dg_bar):
    # measured survivor counts are reported; on this ring the nonminimal-bar
    # classes happen to land in the contractible part (see the ledger), so the
    # projection test certifies the mechanism rather than a positive count
    bd, B, bcs = m2_dg_bar
    ctr = minimalize(B.complex)
    assert ctr.small.poincare_coeffs()[:7] == [2 ** i for i in range(7)]
    recs = rho_cycles_general(bcs, B, 4)
    certs, survivors = project_to_minimal(ctr, recs, B.quotient, 4)
    assert len(certs) == len(recs)
    assert all(c.killed_by_m for c in certs)
    assert survivors >= 0


def test_a_projected_cycle_that_m_does_not_kill_is_no_survivor(m2_ideal):
    # C_1 = R e_0 with d_1 = 0 is minimal, and e_0 is a cycle with x e_0 != 0
    R = m2_ideal.ring
    cx = GradedFreeComplex(R, {0: [0], 1: [0]}, {}, quotient=m2_ideal)
    rec = RhoCycle(rho=FreeModuleElement.basis(R, 0), alpha=FreeModuleElement.basis(R, 0))
    (cert,), survivors = project_to_minimal(minimalize(cx), [rec], m2_ideal, 1)
    assert cert.nonzero
    assert (cert.killed_by_m, cert.outside_m_kernel, survivors) == (False, False, 0)


def test_odd_q_requires_free_algebra(m2_dg_bar):
    bd, B, bcs = m2_dg_bar
    from burchlab.errors import InternalCheckError
    with pytest.raises(InternalCheckError):
        rho_cycles_general(bcs, B, 5)


@pytest.fixture(scope="module")
def m2_golod_bar(m2_ideal):
    R = m2_ideal.ring
    bd = burch_data(m2_ideal)
    X, Ymod, ctr_x, ctr_y = taylor_module_fast_path(
        R, minimal_generators(m2_ideal.gens, R), [R.parse("x"), R.parse("y")])
    alg = AInfAlgebra(ctr_x, X)
    mod = AInfModule(alg, ctr_y, Ymod)
    B = BarComplex(alg, mod, m2_ideal, cap=8)
    bcs = burch_cycles(bd, alg.complex)
    return bd, B, bcs


def test_golod_cycle_counts_and_splitting(m2_golod_bar):
    bd, B, bcs = m2_golod_bar
    for q in range(3, 8):
        recs = rho_cycles_golod(bcs, B, q)
        assert len(recs) == 3 ** ((q - 3) // 2)
        for rec in recs:
            verdict = splitting_check(rec.rho, B.complex.diff(q), bd)
            assert verdict.kind == "splits"


def test_golod_cycles_survive_in_minimal_bar(m2_golod_bar):
    bd, B, bcs = m2_golod_bar
    ctr = minimalize(B.complex)
    assert not ctr.htpy  # the bar is already minimal here
    for q in (3, 5, 7):
        recs = rho_cycles_golod(bcs, B, q)
        certs, survivors = project_to_minimal(ctr, recs, B.quotient, q)
        assert survivors == len(recs)
        assert all(c.nonzero and c.killed_by_m and c.outside_m_kernel for c in certs)


def test_golod_regime_guard(m2_dg_bar):
    bd, B, bcs = m2_dg_bar
    with pytest.raises(InputError):
        rho_cycles_golod(bcs, B, 4)  # dg regime rejected
