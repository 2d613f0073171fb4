"""The Taylor product, the Leibniz self-check restricted to |S n T| <= 1, and a
dg algebra as a dg module over itself."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from burchlab.burch import minimal_generators
from burchlab.errors import InternalCheckError
from burchlab.ring import PolyRing, mono_div, mono_lcm, mono_mul
from burchlab.taylor import DgAlgebra, DgModule, TaylorComplex

P = 32003


def lcm_of(monos, S, nvars):
    acc = (0,) * nvars
    for k in S:
        acc = mono_lcm(acc, monos[k])
    return acc


def docstring_product(T, S, Tset):
    """e_S * e_T as the module docstring defines it: (position, mono, coeff) or None."""
    if set(S) & set(Tset):
        return None
    nvars = T.ring.nvars
    U = tuple(sorted(S + Tset))
    lS, lT, lU = (lcm_of(T.monomials, X, nvars) for X in (S, Tset, U))
    inversions = sum(1 for s in S for t in Tset if t < s)
    coeff = 1 if inversions % 2 == 0 else P - 1
    return T.position[len(U)][U], mono_div(mono_mul(lS, lT), lU), coeff


monomial_lists = st.integers(2, 3).flatmap(lambda nvars: st.tuples(
    st.just(nvars),
    st.lists(st.tuples(*[st.integers(0, 3)] * nvars).filter(any),
             min_size=1, max_size=6, unique=True)))


@settings(max_examples=30, deadline=None)
@given(data=monomial_lists)
def test_product_basis_matches_the_docstring_formula(data):
    nvars, monos = data
    R = PolyRing(P, ("x", "y", "z")[:nvars])
    T = TaylorComplex(R, [R.monomial(m) for m in monos])
    s = len(monos)
    for da, db in product(range(s + 1), repeat=2):
        for (ia, S), (ib, Tset) in product(enumerate(T.subsets[da]), enumerate(T.subsets[db])):
            got = T.action_basis(da, ia, db, ib)
            terms = T.product_terms(da, ia, db, ib)
            want = docstring_product(T, S, Tset)
            if want is None:
                # the zero products the restricted Leibniz check relies on
                assert not got.coords and terms == (), (S, Tset)
                continue
            pos, mono, coeff = want
            assert terms == (want,)
            assert list(got.coords) == [pos]
            assert got.coords[pos].terms == {mono: coeff}


def test_leibniz_pairs_are_exactly_the_pairs_meeting_in_at_most_one_index():
    R = PolyRing(P, ("x", "y"))
    T = TaylorComplex(R, [R.parse(t) for t in ["x^3", "x^2*y", "x*y^2", "y^3", "x*y"]])
    s = len(T.monomials)
    total = 0
    for da in range(s + 1):
        for db in range(s + 1 - da):
            got = list(T.leibniz_pairs(da, db))
            want = [(ia, ib) for ia, S in enumerate(T.subsets[da])
                    for ib, U in enumerate(T.subsets[db]) if len(set(S) & set(U)) <= 1]
            assert got == want
            total += len(got)
    # 3^s disjoint pairs, and s * 3^(s-1) meeting in one index less the
    # s * 2^(s-1) of those with da + db = s + 1 (which lie above the top)
    assert total == 3 ** s + s * 3 ** (s - 1) - s * 2 ** (s - 1)


def test_generic_dg_algebras_check_every_pair(hyper_ideal):
    from burchlab.tate import acyclic_closure

    A = acyclic_closure(
        hyper_ideal.ring, minimal_generators(hyper_ideal.gens, hyper_ideal.ring), through=4)
    for da, db in product(range(4), repeat=2):
        pairs = list(A.leibniz_pairs(da, db))
        assert len(pairs) == A.complex.rank(da) * A.complex.rank(db)
    assert type(A).check_leibniz is DgAlgebra.check_leibniz


def test_a_planted_sign_in_the_generic_rule_is_caught_on_its_pair(m2_ideal):
    # the Tate closure checks every pair; flip e_0 * e_1 of two degree-1 variables
    from burchlab.tate import acyclic_closure

    A = acyclic_closure(m2_ideal.ring, minimal_generators(m2_ideal.gens, m2_ideal.ring), 3)
    A.check_leibniz()   # the honest closure passes
    ia, ib = A.position(1, ((0, 1),)), A.position(1, ((1, 1),))
    honest = A.product_terms
    assert honest(1, ia, 1, ib)

    def planted(da, ja, db, jb):
        out = honest(da, ja, db, jb)
        if (da, ja, db, jb) == (1, ia, 1, ib):
            return tuple((i, m, P - c) for i, m, c in out)
        return out

    A.product_terms = planted
    with pytest.raises(InternalCheckError,
                       match=rf"^Leibniz fails on basis pair \(1,{ia}\) \(1,{ib}\)$"):
        A.check_leibniz()


def plant_sign_flip(T, da, S, db, U):
    """Make the rule T.product_terms return -(e_S * e_U) on that one pair."""
    ia, ib = T.position[da][S], T.position[db][U]
    honest = T.product_terms

    def planted(xa, ja, xb, jb):
        out = honest(xa, ja, xb, jb)
        if (xa, ja, xb, jb) == (da, ia, db, ib):
            return tuple((i, m, P - c) for i, m, c in out)
        return out

    T.product_terms = planted


def taylor_m2_3vars():
    R = PolyRing(P, ("x", "y", "z"))
    return TaylorComplex(R, [R.parse(t) for t in ["x^2", "x*y", "y^2", "z^2"]])


def test_planted_sign_on_any_disjoint_pair_is_caught():
    honest = taylor_m2_3vars()
    honest.check_leibniz()
    s = len(honest.monomials)
    planted = 0
    for da, db in product(range(s + 1), repeat=2):
        for S, U in product(honest.subsets[da], honest.subsets[db]):
            if set(S) & set(U) or not S + U:
                continue  # (1, 1) has no differential; the unit check covers it
            T = taylor_m2_3vars()
            plant_sign_flip(T, da, S, db, U)
            with pytest.raises(InternalCheckError):
                T.check_leibniz()
            planted += 1
    assert planted == 3 ** s - 1


def test_planted_sign_in_a_cancelling_pair_meeting_in_one_index_is_caught():
    # S = {0,1}, U = {1,2} meet in 1: e_S * e_U = 0, and of the right-hand
    # terms only d(e_S) * e_U ~ e_0 * e_12 and e_S * d(e_U) ~ e_01 * e_2 are
    # nonzero; they must cancel.  Flip the sign of e_0 * e_12 only.
    T = taylor_m2_3vars()
    ia, ib = T.position[2][(0, 1)], T.position[2][(1, 2)]
    T.leibniz_pairs = lambda da, db: [(ia, ib)] if (da, db) == (2, 2) else []
    T.check_leibniz()  # the honest product passes on this pair
    plant_sign_flip(T, 1, (0,), 2, (1, 2))
    with pytest.raises(InternalCheckError, match=rf"\(2,{ia}\) \(2,{ib}\)"):
        T.check_leibniz()
    del T.leibniz_pairs  # the full check catches it as well
    with pytest.raises(InternalCheckError):
        T.check_leibniz()


@pytest.mark.parametrize("pair", [(0, 0, 1, 2), (1, 2, 0, 0)])
def test_a_planted_coefficient_on_either_unit_product_is_caught(pair):
    T = taylor_m2_3vars()
    T.check_unit()
    honest = T.product_terms

    def planted(*args):
        out = honest(*args)
        return tuple((i, m, 2 * c % P) for i, m, c in out) if args == pair else out

    T.product_terms = planted
    with pytest.raises(InternalCheckError, match=r"^unit law fails on basis \(1,2\)$"):
        T.check_unit()


# Every generator list the tests build a Taylor complex from, as (variables,
# generators); the constructor runs no check, so the dg laws of each are
# checked here in full.
TESTED_TAYLOR_LISTS = [
    ("x", ["x^2"]),
    ("xy", ["x^2"]),
    ("xy", ["x^2", "x^2*y"]),
    ("xy", ["y^2", "x*y"]),
    ("xy", ["x^2", "x*y", "y^2"]),
    ("xy", ["y^2", "x*y", "x^2"]),
    ("xy", ["x^4", "x^2*y", "y^2"]),
    ("xy", ["y^2", "x^2*y", "x^4"]),
    ("xy", ["x^3", "x^2*y", "x*y", "y^2"]),
    ("xy", ["y^2", "x*y", "x^3"]),
    ("xyz", ["x^2", "x*y", "y^2", "z^2"]),
    ("xyz", ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"]),
    ("xyz", ["z^2", "y*z", "x*z", "y^2", "x*y", "x^2"]),
    ("xyzw", ["x*y", "y*z", "z*w", "x^2", "y^2", "z^2", "w^2"]),
]


@pytest.mark.parametrize("variables, gens", TESTED_TAYLOR_LISTS)
def test_the_tested_taylor_complexes_are_dg_algebras(variables, gens):
    R = PolyRing(P, tuple(variables))
    T = TaylorComplex(R, [R.parse(g) for g in gens])
    T.complex.check_dd_zero()
    T.check_unit()
    T.check_leibniz()


def test_a_generator_with_more_than_one_term_is_refused():
    R = PolyRing(P, ("x", "y"))
    with pytest.raises(ValueError, match="monomials"):
        TaylorComplex(R, [R.parse("x^2+y^2"), R.parse("x*y")])


def test_a_dg_algebra_is_a_dg_module_over_itself():
    T = taylor_m2_3vars()
    assert isinstance(T, DgModule) and T.algebra is T
    honest = T.action_basis(1, 0, 1, 1)
    assert T.op(2, ((1, 0), (1, 1))) == honest
    plant_sign_flip(T, 1, (0,), 1, (1,))   # the action reads the patched rule
    assert T.action_basis(1, 0, 1, 1) == -honest
    assert T.op(2, ((1, 0), (1, 1))) == -honest
