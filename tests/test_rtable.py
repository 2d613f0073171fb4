"""The per-ideal table of standard monomials and monomial normal forms.

The oracles are independent of the table: normal forms come from
reduce_element against the reduced Groebner basis, standard monomials from
the lead-term divisibility filter, and graded dimensions of Q/I from plain
linear algebra on the generator multiples.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from burchlab.errors import InternalCheckError
from burchlab.groebner import Ideal, Strand, lead_term
from burchlab.linalg import rank_of
from burchlab.matrices import FreeModuleElement
from burchlab.ring import Polynomial, PolyRing, mono_divides, monomials_of_degree
from support.checks import reduce_element

P = 32003
RINGS = {n: PolyRing(P, ("x", "y", "z")[:n]) for n in (2, 3)}
coeffs = st.integers(min_value=1, max_value=P - 1)


def gb_normal_form(I: Ideal, f: Polynomial) -> Polynomial:
    basis = [(lead_term(FreeModuleElement(I.ring, {0: g})), FreeModuleElement(I.ring, {0: g}))
             for g in I.groebner()]
    r = reduce_element(FreeModuleElement(I.ring, {0: f}), basis)
    return r.coords.get(0, I.ring.zero())


def filtered_standard_monomials(I: Ideal, d: int):
    leads = [g.lead_monomial() for g in I.groebner()]
    return [m for m in monomials_of_degree(I.ring.nvars, d)
            if not any(mono_divides(lm, m) for lm in leads)]


def quotient_dim(I: Ideal, d: int) -> int:
    """dim_k (Q/I)_d from the span of the generator multiples alone."""
    monos = monomials_of_degree(I.ring.nvars, d)
    pos = {m: t for t, m in enumerate(monos)}
    cols = []
    for g in I.gens:
        for m in monomials_of_degree(I.ring.nvars, d - g.degree()):
            cols.append({pos[mm]: c for mm, c in g.mul_term(m, 1).terms.items()})
    return len(monos) - rank_of(cols, P)


def homogeneous(ring, degree, max_terms=4):
    monos = monomials_of_degree(ring.nvars, degree)
    return st.lists(st.tuples(st.sampled_from(monos), coeffs), min_size=1,
                    max_size=max_terms).map(lambda terms: Polynomial(ring, dict(terms)))


@st.composite
def artinian_ideals(draw):
    """A non-monomial Artinian ideal: pure powers plus random forms."""
    ring = RINGS[draw(st.sampled_from((2, 3)))]
    gens = [ring.monomial(tuple(draw(st.integers(3, 5)) if t == i else 0
                                for t in range(ring.nvars)))
            for i in range(ring.nvars)]
    for _ in range(draw(st.integers(1, 3))):
        gens.append(draw(homogeneous(ring, draw(st.integers(2, 3)), max_terms=3)))
    I = Ideal(ring, gens)
    assume(any(len(g.terms) > 1 for g in I.groebner()))
    return I


@settings(max_examples=40, deadline=None)
@given(data=st.data(), I=artinian_ideals())
def test_table_normal_forms_and_bases_match_oracles(data, I):
    ring = I.ring
    for _ in range(3):
        f = data.draw(homogeneous(ring, data.draw(st.integers(0, 6)), max_terms=6))
        assert I.normal_form(f) == gb_normal_form(I, f)
    table = I.table()
    top = table.top
    assert top is not None
    for d in range(top + 2):
        std = table.basis(d)
        assert std == filtered_standard_monomials(I, d)
        assert len(std) == quotient_dim(I, d)
    assert not table.basis(top + 1) and table.basis(top)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), I=artinian_ideals())
def test_strand_vectors_round_trip_to_normal_forms(data, I):
    ring = I.ring
    degrees = [0, 1]
    d = data.draw(st.integers(1, 4))
    mono = data.draw(st.sampled_from(monomials_of_degree(ring.nvars, 1)))
    v = FreeModuleElement(ring, {0: data.draw(homogeneous(ring, d - 1)),
                                 1: data.draw(homogeneous(ring, d - 2)) if d >= 2 else ring.zero()})
    v = FreeModuleElement(ring, {i: f for i, f in v.coords.items() if f})
    strand = Strand(I.table(), degrees, d)
    vec = strand.vector(v.coords, mono)
    want = v.map_coords(lambda f: gb_normal_form(I, f.mul_term(mono, 1)))
    assert strand.element(vec) == want
    assert len(strand) == sum(len(filtered_standard_monomials(I, d - b)) for b in degrees)


def test_strand_vector_rejects_a_term_outside_the_strand():
    ring = RINGS[2]
    I = Ideal(ring, [ring.parse("x^3"), ring.parse("y^3"), ring.parse("x*y - y^2")])
    strand = Strand(I.table(), [0], 2)
    with pytest.raises(InternalCheckError):
        strand.vector({0: ring.parse("x")})   # degree 1 in the degree-2 strand


def test_tables_of_dropped_ideals_never_leak_into_new_ones():
    """Ideals built and dropped in a loop reuse memory addresses; a table
    keyed by anything but the ideal itself would hand a stale entry to the
    next ideal."""
    ring = RINGS[2]
    x2, xy, y2 = ring.parse("x^2"), ring.parse("x*y"), ring.parse("y^2")
    for k in range(1, 120):
        top = 2 + k % 4
        I = Ideal(ring, [x2 - y2.scale(k), xy.scale(k % 7 + 1), ring.monomial((0, 3))])
        f = ring.parse("x^2 + x*y + 3*y^2")
        assert I.normal_form(f) == gb_normal_form(I, f)
        assert I.normal_form(x2) == ring.monomial((0, 2), k)
        assert I.table().top == 2
        assert I.table().basis(2) == filtered_standard_monomials(I, 2)
        J = Ideal(ring, [ring.monomial((top, 0)), xy, ring.monomial((0, top + 1))])
        assert J.table().top == top
        assert J.normal_form(ring.monomial((top - 1, 0))) == ring.monomial((top - 1, 0))
        del I, J


# -- the reduced product -------------------------------------------------------


def polynomials(ring, max_degree=4, max_terms=5):
    """Random polynomials, homogeneous or not."""
    monos = [m for d in range(max_degree + 1) for m in monomials_of_degree(ring.nvars, d)]
    return st.lists(st.tuples(st.sampled_from(monos), coeffs), max_size=max_terms).map(
        lambda terms: Polynomial(ring, dict(terms)))


@st.composite
def homogeneous_artinian_ideals(draw):
    """Pure powers plus random forms or monomials: monomial and non-monomial bases."""
    ring = RINGS[draw(st.sampled_from((2, 3)))]
    gens = [ring.monomial(tuple(draw(st.integers(2, 4)) if t == i else 0
                                for t in range(ring.nvars)))
            for i in range(ring.nvars)]
    for _ in range(draw(st.integers(0, 3))):
        gens.append(draw(homogeneous(ring, draw(st.integers(2, 3)), max_terms=3)))
    return Ideal(ring, gens)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), I=homogeneous_artinian_ideals())
def test_reduced_product_is_the_normal_form_of_the_product(data, I):
    table = I.table()
    assert I.table() is table and table.top is not None
    for _ in range(4):
        f = data.draw(polynomials(I.ring, max_degree=table.top + 1))
        g = data.draw(polynomials(I.ring, max_degree=table.top + 1))
        assert table.mul(f, g) == I.normal_form(f * g) == gb_normal_form(I, f * g)


def test_an_inhomogeneous_ideal_has_no_table():
    # x^2 = y and y^2 = 0: R has basis 1, x, y, xy, yet the degree-3 monomial
    # x^3 = x*y is not 0, so top would not bound products; the table refuses
    ring = RINGS[2]
    I = Ideal(ring, [ring.parse("x^2 - y"), ring.parse("y^2")])
    with pytest.raises(ValueError, match="homogeneous"):
        I.table()
