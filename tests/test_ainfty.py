import pytest
from itertools import combinations_with_replacement

from burchlab.ainfty import AInfAlgebra, AInfModule
from burchlab.burch import minimal_generators
from burchlab.contraction import minimalize
from burchlab.dgmodule import build_semifree_resolution, taylor_module_fast_path
from burchlab.errors import ArityCapError, InternalCheckError
from burchlab.resolve import ModulePresentation
from burchlab.ring import PolyRing
from burchlab.taylor import TaylorComplex
from support.checks import check_minimality, stasheff_check

P = 32003


def test_identity_contraction_reproduces_dg(m2_ideal):
    T = TaylorComplex(m2_ideal.ring, m2_ideal.gens)
    alg = AInfAlgebra(minimalize(T.complex), T, arity_cap=4)
    for n in range(1, 5):
        stasheff_check(alg, n, 8)
    # honest identity-contraction case: a minimal dg input has h = 0, the
    # transferred m_2 is the dg product, and all higher operations vanish
    K = TaylorComplex(m2_ideal.ring, [m2_ideal.ring.parse("x^2")])
    ctrK = minimalize(K.complex)
    algK = AInfAlgebra(ctrK, K, arity_cap=4)
    assert not ctrK.htpy
    assert not algK.op(2, ((1, 0), (1, 0))).coords  # e*e = 0
    assert not algK.op(3, ((1, 0), (1, 0), (1, 0))).coords


def test_transfer_on_bione_ring(bione_ideal):
    T = TaylorComplex(bione_ideal.ring, [bione_ideal.ring.parse(s)
                                         for s in ("y^2", "x^2*y", "x^4")])
    ctr = minimalize(T.complex)
    assert ctr.small.poincare_coeffs() == [1, 3, 2]
    alg = AInfAlgebra(ctr, T, arity_cap=4)
    for n in range(1, 5):
        stasheff_check(alg, n, 8)
    check_minimality(alg, 8)


def test_transfer_signs_on_an_algebra_with_nonzero_m3():
    # on k[x,y,z,w]/(xy, yz, zw, x^2, y^2, z^2, w^2) four m_3 values within
    # degree 3 are nonzero, so the identities of arity 3 read the transfer's
    # sign convention sigma, which the rings above, all with m_3 = 0, do not
    R = PolyRing(P, ("x", "y", "z", "w"))
    T = TaylorComplex(R, [R.parse(s) for s in ("x*y", "y*z", "z*w", "x^2", "y^2", "z^2", "w^2")])
    alg = AInfAlgebra(minimalize(T.complex), T, arity_cap=4)
    assert alg.op(3, ((1, 1), (1, 6), (1, 3))).coords
    for n in range(1, 4):
        stasheff_check(alg, n, 3)


def test_strict_unitality(m2_ideal):
    T = TaylorComplex(m2_ideal.ring, m2_ideal.gens)
    alg = AInfAlgebra(minimalize(T.complex), T, arity_cap=4)
    unit = alg.unit_ref()
    for i in range(alg.complex.rank(1)):
        v = alg.op(2, (unit, (1, i)))
        assert list(v.coords) == [i] and str(v.coords[i]) == "1"
        v = alg.op(2, ((1, i), unit))
        assert list(v.coords) == [i]
        assert not alg.op(3, (unit, (1, i), (1, i))).coords


def test_module_transfer_hypersurface(hyper_ideal):
    # k over k[x]/(x^2): minimal Y is the Koszul complex on x; the transferred
    # action realizes the x * x = x^2 factorization
    R = hyper_ideal.ring
    X = TaylorComplex(R, [R.parse("x^2")])
    k = ModulePresentation.residue_field(hyper_ideal)
    Y = build_semifree_resolution(k, X, up_to=9)
    algX = AInfAlgebra(minimalize(X.complex), X, arity_cap=5)
    ctrY = minimalize(Y.complex).truncated(7)
    mod = AInfModule(algX, ctrY, Y, arity_cap=5)
    assert mod.complex.poincare_coeffs() == [1, 1]
    v = mod.op(2, ((1, 0), (0, 0)))
    assert str(v.coords[0]) == "x"
    for n in range(1, 5):
        stasheff_check(mod, n, 10)
    check_minimality(mod, 10)


def test_module_transfer_m2(ctx_m2, m2_ideal):
    R = m2_ideal.ring
    X, Ymod, ctr_x, ctr_y = taylor_module_fast_path(
        R, minimal_generators(m2_ideal.gens, R), [R.parse("x"), R.parse("y")])
    alg = AInfAlgebra(ctr_x, X, arity_cap=4)
    mod = AInfModule(alg, ctr_y, Ymod, arity_cap=4)
    for n in range(1, 5):
        stasheff_check(alg, n, 10)
        stasheff_check(mod, n, 10)
    check_minimality(alg, 10)
    check_minimality(mod, 10)


def test_four_variable_transfer():
    # projective dimension 4: arity-3 operations are not excluded by degree,
    # so the Stasheff identities here genuinely constrain the transfer
    R4 = PolyRing(P, ("x", "y", "z", "w"))
    gens = []
    for c in combinations_with_replacement(range(4), 2):
        e = [0] * 4
        for i in c:
            e[i] += 1
        gens.append(R4.monomial(tuple(e)))
    T = TaylorComplex(R4, gens)
    ctr = minimalize(T.complex)
    assert ctr.small.poincare_coeffs() == [1, 10, 20, 15, 4]
    alg = AInfAlgebra(ctr, T, arity_cap=4)
    stasheff_check(alg, 3, 3)


def test_arity_cap_error():
    R4 = PolyRing(P, ("x", "y", "z", "w"))
    gens = []
    for c in combinations_with_replacement(range(4), 2):
        e = [0] * 4
        for i in c:
            e[i] += 1
        gens.append(R4.monomial(tuple(e)))
    T = TaylorComplex(R4, gens)
    ctr = minimalize(T.complex)
    alg = AInfAlgebra(ctr, T, arity_cap=2)
    # m_3 on three degree-1 inputs lands in degree 4 <= top, so the cap bites
    with pytest.raises(ArityCapError) as exc:
        alg.op(3, ((1, 0), (1, 1), (1, 2)))
    assert exc.value.needed == 3


def plant_negated_value(structure, n, refs):
    """Replace the cached m_n / mu_n value on the slot tuple refs (the y slot
    last for a module) by its negative; refs must be a tuple that reaches
    the cache (no unit input, not zero by degree)."""
    honest = structure._op(n, refs)
    assert honest.coords
    structure._cache[(n, refs)] = -honest


def test_planted_wrong_m2_is_caught(m2_ideal):
    T = TaylorComplex(m2_ideal.ring, m2_ideal.gens)
    alg = AInfAlgebra(minimalize(T.complex), T, arity_cap=4)
    plant_negated_value(alg, 2, ((1, 0), (1, 1)))
    with pytest.raises(InternalCheckError, match="Stasheff identity"):
        for n in range(1, 5):
            stasheff_check(alg, n, 8)


def test_planted_wrong_mu3_is_caught(m23_ideal):
    # mu_3 of the m23 module is nonzero on three tuples within degree 6
    R = m23_ideal.ring
    X, Ymod, ctr_x, ctr_y = taylor_module_fast_path(
        R, minimal_generators(m23_ideal.gens, R), [R.var(i) for i in range(3)])
    alg = AInfAlgebra(ctr_x, X)
    mod = AInfModule(alg, ctr_y, Ymod)
    plant_negated_value(mod, 3, ((1, 3), (1, 2), (0, 0)))
    with pytest.raises(InternalCheckError, match="Stasheff identity"):
        for n in range(1, 5):
            stasheff_check(mod, n, 6)
