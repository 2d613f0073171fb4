import pytest
from hypothesis import given, settings, strategies as st

from burchlab.matrices import add_into
from burchlab.ring import (ParseError, PolyRing, Polynomial, grevlex_key, is_prime,
                           mono_deg, monomials_of_degree)

P = 32003


@pytest.fixture(scope="module")
def R():
    return PolyRing(P, ("x", "y"))


def naive_product(a, b):
    """Independent term-by-term multiplier used as the oracle for *."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            out[m] = (out.get(m, 0) + c1 * c2) % P
    return {m: c for m, c in out.items() if c}


def test_difference_of_squares(R):
    assert R.parse("x+y") * R.parse("x-y") == R.parse("x^2-y^2")


def test_mul_by_zero(R):
    assert (R.parse("x^2+y") * R.zero()) == R.zero()


def test_square_expansion_against_naive_oracle(R):
    f = R.parse("x^2+y")
    prod = f * f
    assert prod == R.parse("x^4+2*x^2*y+y^2")
    assert prod.terms == naive_product(f, f)


def test_composite_p_is_rejected():
    for p in (1022117, 21, 1, 0, 32003 * 32009):   # 1022117 = 1009 * 1013
        with pytest.raises(ValueError):
            PolyRing(p, ("x",))
    assert PolyRing(2**31 - 1, ("x",)).inv(2) * 2 % (2**31 - 1) == 1


def test_is_prime_against_trial_division():
    def trial(n):
        return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(3000) if is_prime(n)] == [n for n in range(3000) if trial(n)]
    assert is_prime(2**61 - 1) and not is_prime(1009 * 1013) and not is_prime(3215031751)


coeff = st.integers(min_value=0, max_value=P - 1)


@given(a=coeff, b=coeff, c=coeff)
def test_field_axioms(a, b, c):
    R = PolyRing(P, ("x",))
    assert (a + b) % P == (b + a) % P
    assert (a * (b + c)) % P == (a * b + a * c) % P
    assert ((a * b) % P * c) % P == (a * (b * c) % P) % P
    if a % P:
        assert (a * R.inv(a)) % P == 1


def homogeneous_polys(ring, degree):
    monos = monomials_of_degree(ring.nvars, degree)
    return st.lists(
        st.tuples(st.sampled_from(monos), st.integers(min_value=1, max_value=P - 1)),
        min_size=1, max_size=4,
    ).map(lambda terms: Polynomial(ring, dict(terms)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_product_commutes_associates_on_homogeneous(data):
    R = PolyRing(P, ("x", "y"))
    f = data.draw(homogeneous_polys(R, data.draw(st.integers(1, 3))))
    g = data.draw(homogeneous_polys(R, data.draw(st.integers(1, 3))))
    h = data.draw(homogeneous_polys(R, data.draw(st.integers(1, 2))))
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert (f * g).terms == naive_product(f, g)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_homogeneous_product_degree(data):
    R = PolyRing(P, ("x", "y"))
    d1, d2 = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    f = data.draw(homogeneous_polys(R, d1))
    g = data.draw(homogeneous_polys(R, d2))
    prod = f * g
    if prod:
        assert prod.is_homogeneous()
        assert prod.degree() == d1 + d2


def small_polys(ring):
    """Polynomials of degree <= 1 with few terms, so that sums often cancel mod 3."""
    monos = [(0, 0), (1, 0), (0, 1)]
    return st.lists(st.tuples(st.sampled_from(monos), st.integers(1, ring.p - 1)),
                    max_size=3).map(lambda terms: Polynomial(ring, dict(terms)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_add_into_folds_to_the_polynomial_sum(data):
    F3 = PolyRing(3, ("x", "y"))
    items = data.draw(st.lists(st.tuples(st.integers(0, 3), small_polys(F3)), max_size=12))
    acc, want = {}, {}
    for key, f in items:
        add_into(acc, key, f)
        want[key] = want.get(key, F3.zero()) + f
    assert acc == {key: f for key, f in want.items() if f}


def test_add_into_drops_a_cancelled_key_and_readds_it_last(R):
    f, g = R.parse("x+y"), R.parse("x^2")
    acc = {}
    add_into(acc, "a", f)
    add_into(acc, "b", g)
    add_into(acc, "a", -f)
    assert "a" not in acc
    add_into(acc, "a", f)
    assert list(acc) == ["b", "a"] and acc["a"] == f


def test_grevlex_order_two_vars(R):
    x2, xy, y2 = (f.lead_monomial() for f in (R.parse("x^2"), R.parse("x*y"), R.parse("y^2")))
    assert grevlex_key(y2) < grevlex_key(xy) < grevlex_key(x2)


def test_monomials_of_degree_count():
    assert len(monomials_of_degree(3, 4)) == 15  # C(4+2, 2)
    assert [mono_deg(m) for m in monomials_of_degree(2, 3)] == [3, 3, 3, 3]


def test_parser_rejects_garbage(R):
    with pytest.raises(ParseError):
        R.parse("x**2")
    with pytest.raises(ParseError):
        R.parse("2x")
    with pytest.raises(ParseError):
        R.parse("w + 1")
    with pytest.raises(ParseError):
        R.parse("")


@pytest.mark.parametrize("text", [
    "y^2+\u00b9",      # superscript one: isdigit() is true, int() raises
    "\u0663*x",        # Arabic-Indic three: int() reads it as 3
    "x^\u0663", "x^1_0", "1_0*x", "x^+3", "x^-2", "9" * 5000 + "*x", "x^" + "9" * 5000,
])
def test_parser_accepts_only_ascii_numbers(R, text):
    with pytest.raises(ParseError):
        R.parse(text)


def test_parser_ascii_numbers(R):
    assert R.parse("3^2*x") == R.parse("9*x")
    assert R.parse("x^10") == R.monomial((10, 0))
    assert R.parse("32003*x + y") == R.parse("y")


grammar_text = st.text(alphabet=st.sampled_from(
    list("xyz0123456789+-*^ _") + ["\u00b9", "\u00b2", "\u0663", "\uff13", "\u2168"]), max_size=12)


@settings(max_examples=300, deadline=None)
@given(text=grammar_text | st.text(max_size=12))
def test_parser_fuzz_polynomial_or_parse_error(R, text):
    try:
        f = R.parse(text)
    except ParseError:
        return
    assert isinstance(f, Polynomial)
    assert all(0 < c < P for c in f.terms.values())


def test_parser_roundtrip(R):
    for s in ["x^2 + 2*x*y", "x^4-x^2*y+3", "31*x*y^3"]:
        f = R.parse(s)
        assert R.parse(str(f)) == f
