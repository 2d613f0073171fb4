import pytest
from hypothesis import assume, given, settings, strategies as st

from burchlab.linalg import SparseEchelon, kernel_basis, rank_of
from burchlab.matrices import FreeModuleElement, PolyMatrix
from burchlab.groebner import (Ideal, _augment, _lead_index, _normal_form, _term_key,
                               lift_through, maximal_ideal, module_groebner, syzygies_of)
from burchlab.ring import PolyRing, Polynomial, grevlex_key, mono_divides, monomials_of_degree
from support.checks import identity

P = 32003


@pytest.fixture(scope="module")
def R():
    return PolyRing(P, ("x", "y"))


def test_monomial_ideal_is_its_own_basis(R):
    I = Ideal(R, [R.parse("x^2"), R.parse("x*y"), R.parse("y^2")])
    assert {str(g) for g in I.groebner()} == {"x^2", "x*y", "y^2"}


def test_buchberger_two_binomials(R):
    I = Ideal(R, [R.parse("x^2-y^2"), R.parse("x^2+y^2")])
    assert I.contains(R.parse("x^2"))
    assert I.contains(R.parse("y^2"))
    assert {str(g) for g in I.groebner()} == {"x^2", "y^2"}


def test_zero_ideal(R):
    assert Ideal(R, [R.zero()]).groebner() == []


def test_colon_socle_of_bione(R):
    I = Ideal(R, [R.parse("x^4"), R.parse("x^2*y"), R.parse("y^2")])
    n = maximal_ideal(R)
    assert I.colon(n) == Ideal(R, [R.parse("x^3"), R.parse("x*y"), R.parse("y^2")])
    assert I.product(n).colon(I.colon(n)) == Ideal(R, [R.parse("x^2"), R.parse("y")])


def test_colon_by_unit_ideal(R):
    I = Ideal(R, [R.parse("x^4"), R.parse("x^2*y"), R.parse("y^2")])
    assert I.colon(Ideal(R, [R.one()])) == I


def brute_force_monomial_colon(R, gens, by, through=8):
    """Degree-by-degree enumeration: which monomials multiply `by` into I."""
    I = Ideal(R, gens)
    out = []
    for d in range(through + 1):
        for m in monomials_of_degree(R.nvars, d):
            q = R.monomial(m)
            if all(I.contains(q * f) for f in by):
                out.append(q)
    return out


monomial_gens = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: 0 < sum(e) <= 4),
    min_size=1, max_size=4, unique=True)


@settings(max_examples=25, deadline=None)
@given(gens=monomial_gens, by=monomial_gens)
def test_monomial_colon_matches_brute_force(gens, by):
    R = PolyRing(P, ("x", "y"))
    I = Ideal(R, [R.monomial(m) for m in gens])
    J = Ideal(R, [R.monomial(m) for m in by])
    fast = I.colon(J)
    # brute force over all monomials of bounded degree
    for q in brute_force_monomial_colon(R, I.gens, J.gens, through=6):
        assert fast.contains(q)
    for g in fast.groebner():
        assert all(I.contains(g * f) for f in J.gens)


def test_koszul_syzygy(R):
    cols = [FreeModuleElement(R, {0: R.var(0)}), FreeModuleElement(R, {0: R.var(1)})]
    syz = syzygies_of(cols, 1, R)
    assert len(syz) == 1
    w = syz[0]
    assert not (w.coords[0] * R.var(0) + w.coords[1] * R.var(1))


def test_regular_element_has_no_syzygy(R):
    assert syzygies_of([FreeModuleElement(R, {0: R.parse("x^2")})], 1, R) == []


def test_syzygy_matrix_composition_is_zero(R):
    m = PolyMatrix.from_columns(
        R, [0], [FreeModuleElement(R, {0: g}) for g in
                 (R.parse("x^2"), R.parse("x*y"), R.parse("y^2"))], [2, 2, 2])
    syz = syzygies_of([m.column(j) for j in range(m.cols)], m.rows, R)
    s = PolyMatrix.from_columns(R, m.col_degrees, syz, [w.degree(m.col_degrees) for w in syz])
    assert s.cols == 2
    assert m.compose(s).is_zero()
    # a random kernel element reduces to zero against the syzygy basis
    index = _lead_index(module_groebner([s.column(j) for j in range(s.cols)], R))
    k = FreeModuleElement(R, {0: R.parse("y^2"), 2: R.parse("-x^2")})
    assert not _normal_form(k, index).coords


def test_lift_through(R):
    cols = [FreeModuleElement(R, {0: R.parse("x^2")}), FreeModuleElement(R, {0: R.parse("y^2")})]
    target = FreeModuleElement(R, {0: R.parse("x^2*y^2")})
    w = lift_through(cols, 1, target, R)
    total = R.zero()
    for i, f in w.coords.items():
        total = total + f * [R.parse("x^2"), R.parse("y^2")][i]
    assert total == R.parse("x^2*y^2")
    assert lift_through(cols, 1, FreeModuleElement(R, {0: R.parse("x")}), R) is None


# -- module_groebner against Buchberger's criterion ---------------------------
#
# The oracle below divides by plain term-by-term arithmetic on
# FreeModuleElements, sharing no code with the engine's reduction kernel.


def naive_lead(v):
    pos = min(v.coords)
    return pos, max(v.coords[pos].terms, key=grevlex_key)


def naive_normal_form(v, basis):
    """Remainder of v on division by basis (any reducer with a dividing lead)."""
    ring = v.ring
    rem = FreeModuleElement(ring, {})
    while v.coords:
        pos, m = naive_lead(v)
        c = v.coords[pos].terms[m]
        for g in basis:
            gpos, gm = naive_lead(g)
            if gpos == pos and mono_divides(gm, m):
                q = tuple(a - b for a, b in zip(m, gm))
                u = c * ring.inv(g.coords[gpos].terms[gm])
                v = v - g.map_coords(lambda f: f.mul_term(q, u))
                break
        else:
            piece = FreeModuleElement(ring, {pos: ring.monomial(m, c)})
            rem, v = rem + piece, v - piece
    return rem


@st.composite
def homogeneous_submodules(draw):
    """(ring, rank a, columns): homogeneous, not all monomial, in Q^a."""
    R = PolyRing(P, ("x", "y", "z")[:draw(st.integers(2, 3))])
    a = draw(st.integers(1, 3))
    shifts = draw(st.lists(st.integers(0, 1), min_size=a, max_size=a))
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(1, 3))
        coords = {}
        for pos in range(a):
            monos = monomials_of_degree(R.nvars, d - shifts[pos]) if d >= shifts[pos] else []
            chosen = draw(st.lists(st.sampled_from(monos), max_size=3, unique=True)) if monos else []
            terms = {m: draw(st.integers(1, P - 1)) for m in chosen}
            if terms:
                coords[pos] = Polynomial(R, terms)
        if coords:
            cols.append(FreeModuleElement(R, coords))
    assume(cols and any(sum(len(f.terms) for f in v.coords.values()) > 1 for v in cols))
    return R, a, cols


@settings(max_examples=150, deadline=None)
@given(sub=homogeneous_submodules(), augmented=st.booleans())
def test_module_groebner_meets_buchberger_criterion(sub, augmented):
    R, a, cols = sub
    gens = _augment(cols, a, R) if augmented else cols
    gb = module_groebner(gens, R)
    leads = [naive_lead(g) for g in gb]
    # monic, sorted ascending by lead (leads distinct), inter-reduced
    assert all(g.coords[pos].terms[m] == 1 for g, (pos, m) in zip(gb, leads))
    keys = [_term_key(t) for t in leads]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    for k, g in enumerate(gb):
        for o, (lpos, lm) in enumerate(leads):
            if o != k and lpos in g.coords:
                assert not any(mono_divides(lm, m) for m in g.coords[lpos].terms)
    # the inputs lie in the span, and every S-pair reduces to 0
    assert all(not naive_normal_form(v, gb).coords for v in gens)
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            (pi, mi), (pj, mj) = leads[i], leads[j]
            if pi == pj:
                lcm = tuple(max(u, w) for u, w in zip(mi, mj))
                qi, qj = (tuple(u - w for u, w in zip(lcm, m)) for m in (mi, mj))
                s = (gb[i].map_coords(lambda f: f.mul_term(qi, 1))
                     - gb[j].map_coords(lambda f: f.mul_term(qj, 1)))
                assert not naive_normal_form(s, gb).coords
    # syzygies annihilate the columns
    for w in syzygies_of(cols, a, R):
        total = FreeModuleElement(R, {})
        for t, f in w.coords.items():
            total = total + cols[t].mul_poly(f)
        assert not total.coords


# -- matrices ---------------------------------------------------------------


def test_mat_apply_identity_and_zero(R):
    v = FreeModuleElement(R, {0: R.parse("x+y"), 1: R.parse("y^2")})
    ident = identity(R, [0, 1])
    assert ident.apply(v) == v
    zero = PolyMatrix(R, [0], [0, 1])
    assert not zero.apply(v).coords


def test_mat_apply_koszul_boundary(R1=PolyRing(P, ("x",))):
    m = PolyMatrix.from_columns(R1, [0], [FreeModuleElement(R1, {0: R1.parse("x^2")})], [2])
    out = m.apply(FreeModuleElement.basis(R1, 0))
    assert str(out.coords[0]) == "x^2"


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_mat_apply_composition(data):
    R = PolyRing(P, ("x", "y"))
    entries = st.sampled_from([R.zero(), R.one(), R.var(0), R.var(1), R.parse("x*y")])
    m1 = PolyMatrix(R, [0, 0], [1, 1])
    m2 = PolyMatrix(R, [0], [0, 0])
    for i in range(2):
        for j in range(2):
            m1.set_entry(i, j, data.draw(entries))
        m2.set_entry(0, i, data.draw(entries))
    v = FreeModuleElement(R, {0: data.draw(entries), 1: data.draw(entries)})
    v = FreeModuleElement(R, {i: f for i, f in v.coords.items() if f})
    assert m2.apply(m1.apply(v)) == m2.compose(m1).apply(v)


def test_mat_apply_rank_mismatch(R):
    m = identity(R, [0])
    with pytest.raises(ValueError):
        m.apply(FreeModuleElement(R, {3: R.one()}))


# -- sparse linear algebra ---------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(cols=st.lists(st.dictionaries(st.integers(0, 5), st.integers(1, P - 1), max_size=4),
                     min_size=1, max_size=6))
def test_kernel_basis_annihilates(cols):
    rank, kern = kernel_basis(cols, P)
    assert rank + len(kern) == len(cols)
    for kv in kern:
        acc = {}
        for j, c in kv.items():
            for r, v in cols[j].items():
                acc[r] = (acc.get(r, 0) + c * v) % P
        assert all(v == 0 for v in acc.values())


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       cols=st.lists(st.dictionaries(st.integers(0, 7), st.integers(1, P - 1), max_size=5),
                     min_size=1, max_size=8))
def test_rank_of_is_independent_of_column_order(data, cols):
    # rank_of inserts shortest first; any order must give the index-order rank
    perm = data.draw(st.permutations(range(len(cols))))
    ech = SparseEchelon(P)
    for col in cols:
        ech.insert(col)
    _, kern = kernel_basis(cols, P)
    assert rank_of([cols[j] for j in perm], P) == ech.rank == len(cols) - len(kern)


def test_echelon_solve():
    ech = SparseEchelon(P, track_reps=True)
    ech.insert({0: 1, 1: 2}, {0: 1})
    ech.insert({1: 1}, {1: 1})
    sol = ech.solve({0: 2, 1: 5})
    # 2*(e0 + 2e1) + 1*(e1) = 2e0 + 5e1
    assert sol == {0: 2, 1: 1}
    assert ech.solve({2: 1}) is None
