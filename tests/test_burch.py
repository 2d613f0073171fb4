import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from burchlab.burch import burch_data, burch_ideal, burch_index, minimal_generators
from burchlab.errors import InputError, InternalCheckError
from burchlab.groebner import Ideal, maximal_ideal
from burchlab.pipeline import Caps, RingContext, verify_general
from burchlab.resolve import ModulePresentation
from burchlab.ring import PolyRing, monomials_of_degree

P = 32003


@pytest.fixture(scope="module")
def R():
    return PolyRing(P, ("x", "y"))


def test_bione_burch_ideal_and_index(R, ):
    I = Ideal(R, [R.parse("x^4"), R.parse("x^2*y"), R.parse("y^2")])
    assert burch_ideal(I) == Ideal(R, [R.parse("x^2"), R.parse("y")])
    assert burch_index(I) == 1


def test_bione_burch_data_deterministic_choice(R):
    I = Ideal(R, [R.parse("x^4"), R.parse("x^2*y"), R.parse("y^2")])
    bd = burch_data(I)
    # generators in ascending grevlex order; x*s = x*(xy) = x^2*y is a[1]
    assert [str(g) for g in bd.gens] == ["y^2", "x^2*y", "x^4"]
    assert str(bd.xs[0]) == "x"
    assert str(bd.socle_lifts[0]) == "x*y"
    assert bd.j_indices == [1]
    assert bd.verify()


def test_square_of_max_ideal(R):
    I = Ideal(R, [R.parse("x^2"), R.parse("x*y"), R.parse("y^2")])
    assert burch_ideal(I) == Ideal(R, [R.parse("x^2"), R.parse("x*y"), R.parse("y^2")])
    assert burch_index(I) == 2
    bd = burch_data(I)
    assert bd.b == 2
    for i in range(bd.b):
        assert bd.xs[i] * bd.socle_lifts[i] == bd.gens[bd.j_indices[i]]


def test_positive_depth_gives_index_zero(R):
    assert burch_index(Ideal(R, [R.parse("x^2")])) == 0


def test_zero_ideal_convention(R):
    assert burch_ideal(Ideal(R, [])) == maximal_ideal(R)
    assert burch_index(Ideal(R, [])) == 0


def test_cube_of_max_ideal(R):
    I = Ideal(R, [R.parse(s) for s in ("x^3", "x^2*y", "x*y^2", "y^3")])
    assert burch_index(I) == 2


def test_ideal_times_max_ideal_has_full_index(R):
    # quotients by J*n have Burch index = number of variables
    I = Ideal(R, [R.parse(s) for s in ("x^3", "x*y", "x^2*y", "y^2")])
    assert burch_index(I) == 2


def test_three_variables(R):
    R3 = PolyRing(P, ("x", "y", "z"))
    I = Ideal(R3, [R3.parse(t) for t in ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"]])
    assert burch_index(I) == 3
    assert burch_data(I).verify()


def test_rejects_ideal_not_in_square(R):
    with pytest.raises(InputError):
        burch_ideal(Ideal(R, [R.parse("x")]))
    with pytest.raises(InputError):
        burch_ideal(Ideal(R, [R.parse("x^2+x")]))
    with pytest.raises(InputError):
        burch_ideal(Ideal(R, [R.parse("3")]))


def test_minimal_generators_duplicates_and_redundant(R):
    got = minimal_generators([R.parse("x^2"), R.parse("x^2"), R.parse("y^2")], R)
    assert {str(g) for g in got} == {"x^2", "y^2"}
    got = minimal_generators(
        [R.parse("x^2"), R.parse("x*y"), R.parse("y^2"), R.parse("x^3")], R)
    assert {str(g) for g in got} == {"x^2", "x*y", "y^2"}


@st.composite
def generator_lists(draw):
    """A ring in 2 or 3 variables and a list of homogeneous monomials and
    binomials of degree 2 or 3, sometimes with a redundant multiple."""
    nvars = draw(st.sampled_from([2, 3]))
    R = PolyRing(P, ("x", "y", "z")[:nvars])
    gens = []
    for _ in range(draw(st.integers(1, 5))):
        monos = monomials_of_degree(nvars, draw(st.integers(2, 3)))
        picked = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=2, unique=True))
        gens.append(sum((R.monomial(m, draw(st.integers(1, P - 1))) for m in picked), R.zero()))
    if draw(st.booleans()):
        gens.append(R.var(draw(st.integers(0, nvars - 1))) * gens[0])
    return R, gens


def mu(I: Ideal) -> int:
    """dim I/nI = sum_d (dim (Q/nI)_d - dim (Q/I)_d), read from the two R-tables."""
    nI = maximal_ideal(I.ring).product(I)
    top = max(g.degree() for g in I.gens)
    return sum(len(nI.table().basis(d)) - len(I.table().basis(d)) for d in range(top + 1))


@settings(max_examples=40, deadline=None)
@given(data=generator_lists())
def test_minimal_generators_is_a_minimal_generating_list(data):
    R, gens = data
    I = Ideal(R, gens)
    got = minimal_generators(gens, R)
    assert Ideal(R, got) == I
    assert len(got) == mu(I)


def test_verify_catches_a_redundant_generator(R):
    bd = burch_data(Ideal(R, [R.parse("x^4"), R.parse("x^2*y"), R.parse("y^2")]))
    with pytest.raises(InternalCheckError, match="minimally"):
        dataclasses.replace(bd, gens=bd.gens + [R.parse("x") * bd.gens[0]]).verify()


monomial_sets = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: sum(e) >= 2),
    min_size=1, max_size=4, unique=True)


@settings(max_examples=25, deadline=None)
@given(gens=monomial_sets)
def test_square_of_n_inside_burch_ideal(gens):
    R = PolyRing(P, ("x", "y"))
    I = Ideal(R, [R.monomial(m) for m in gens])
    BI = burch_ideal(I)
    n = maximal_ideal(R)
    assert BI.contains_ideal(n.product(n))


@settings(max_examples=25, deadline=None)
@given(gens=monomial_sets)
def test_index_zero_iff_socle_stable(gens):
    R = PolyRing(P, ("x", "y"))
    I = Ideal(R, [R.monomial(m) for m in gens])
    n = maximal_ideal(R)
    if I.colon(n) == I:
        assert burch_index(I) == 0


@settings(max_examples=15, deadline=None)
@given(gens=monomial_sets)
def test_burch_data_verifies_when_positive(gens):
    R = PolyRing(P, ("x", "y"))
    I = Ideal(R, [R.monomial(m) for m in gens])
    if burch_index(I) >= 1:
        assert burch_data(I).verify()


def test_verify_checks_the_burch_ideal_without_the_colon(R):
    # I = (x^4, x^2 y, y^2) has BI = (x^2, y); plant a larger, a smaller and
    # an unrelated ideal in its place, and drop a socle generator
    I = Ideal(R, [R.parse("x^4"), R.parse("x^2*y"), R.parse("y^2")])
    bd = burch_data(I)
    assert bd.verify()
    n = maximal_ideal(R)
    for wrong in (n, n.product(n), Ideal(R, [R.parse("x^2"), R.parse("x")])):
        with pytest.raises(InternalCheckError, match="Burch ideal"):
            dataclasses.replace(bd, burch_ideal=wrong).verify()
    with pytest.raises(InternalCheckError, match="socle"):
        dataclasses.replace(bd, socle_gens=bd.socle_gens[1:]).verify()


def test_burch_results_are_computed_once_per_job(monkeypatch):
    from pathlib import Path

    from burchlab import burch, cycles, pipeline
    from burchlab.cli import run_command
    from burchlab.jobs import parse_job

    spec = parse_job((Path(burch.__file__).parent / "corpus" / "ex_jn.json").read_text())
    calls = {"burch_ideal": 0, "socle": 0}
    real_bi, real_min, real_colon = burch.burch_ideal, burch.minimal_generators, Ideal.colon
    socles = []

    def counted_bi(I):
        calls["burch_ideal"] += 1
        return real_bi(I)

    def counted_colon(self, other):
        J = real_colon(self, other)
        if other.gens == maximal_ideal(self.ring).gens:
            socles.append(J)
        return J

    def counted_min(gens, ring):
        # burch_data takes the socle's generators from its Groebner basis
        calls["socle"] += any(gens is s.groebner() for s in socles)
        return real_min(gens, ring)

    for mod in (burch, pipeline):
        monkeypatch.setattr(mod, "burch_ideal", counted_bi)
    for mod in (burch, cycles, pipeline):
        if hasattr(mod, "minimal_generators"):
            monkeypatch.setattr(mod, "minimal_generators", counted_min)
    monkeypatch.setattr(Ideal, "colon", counted_colon)
    _, code = run_command("verify-golod", spec)   # 17 splitting checks on this job
    assert code == 0
    assert calls == {"burch_ideal": 1, "socle": 1}


# -- the witness search: products x_i * s_i independent modulo nI -----------


def test_binomial_ideal_takes_exact_lifts_on_distinct_generators(R):
    # the first socle generator that works for x is a multiple of y^3, which
    # used to adapt y^4 := x * s and leave no generator for y (exit 4)
    import json

    from burchlab.cli import run_command
    from burchlab.jobs import parse_job

    I = Ideal(R, [R.parse("x^4"), R.parse("y^4"), R.parse("y^2+6*x*y")])
    bd = burch_data(I)
    assert [str(s) for s in bd.socle_lifts] == ["x^3", "y^3"]
    assert [str(bd.gens[j]) for j in bd.j_indices] == ["x^4", "y^4"]
    spec = parse_job(json.dumps({"name": "binomial", "p": P, "vars": ["x", "y"],
                                 "ideal": ["x^4", "y^4", "y^2+6*x*y"],
                                 "module": {"cyclic": ["x", "y"]}}))
    body, code = run_command("burch", spec)
    assert code == 0 and body["burch"]["witness"]["socleLifts"] == ["x^3", "y^3"]


@pytest.mark.parametrize("ideal, lifts, gens", [
    # x * (x*y) = x^2*y was taken first, and y * x^2 = x^2*y shared it
    (["x^3", "y^2", "x^2*y"], ["x^2", "x^2"], ["x^3", "x^2*y"]),
    # x^2*y + x*y^2 is y * (x^2 + x*y) with x^2 + x*y in (I : n), though no
    # socle generator is a multiple of x^2 + x*y (exit 4 before)
    (["x^3", "y^2", "x*y^2+x^2*y"], ["x^2", "x^2 + x*y"], ["x^3", "x^2*y + x*y^2"]),
])
def test_xs_take_distinct_generators_when_they_can(R, ideal, lifts, gens):
    bd = burch_data(Ideal(R, [R.parse(g) for g in ideal]))
    assert [str(s) for s in bd.socle_lifts] == lifts
    assert [str(bd.gens[j]) for j in bd.j_indices] == gens
    assert bd.verify()


def test_an_x_without_an_exact_lift_adapts_a_generator(R):
    # x takes the exact lift 2y onto 2xy, but y divides no generator with a
    # quotient in (I : n); y * y carries x*y + 3*y^2 modulo nI, so that
    # generator becomes 3*y^2 (without the adapt stage the job exits 4)
    bd = burch_data(Ideal(R, [R.parse(g) for g in ("2*x*y", "x*y + 3*y^2", "x^3", "y^3")]))
    assert [str(g) for g in bd.gens] == ["3*y^2", "2*x*y", "x^3"]
    assert [str(s) for s in bd.socle_lifts] == ["2*y", "3*y"]
    assert [j + 1 for j in bd.j_indices] == [2, 1]
    assert bd.verify()


@pytest.mark.parametrize("ideal", [
    ["x^2", "x*y + x^2", "y^2"], ["x^2", "x*y", "y^2"],
    ["2*x*y", "x*y + 3*y^2", "x^3", "y^3"], ["x*y", "y^2", "x^3"],
])
def test_witnesses_do_not_depend_on_how_the_socle_was_computed(R, ideal):
    # the socle generators come from its reduced Groebner basis; as the colon
    # wrote them, the first and third ideal printed 32002*x + 32002*y and
    # 32001*y where their monomial forms print y
    ctx = RingContext.build(R, Ideal(R, [R.parse(g) for g in ideal]))
    pres = ModulePresentation.residue_field(ctx.ideal)
    report = verify_general(ctx, pres, Caps(general_qs=(5,)), oracle_through=1)
    assert [row["witnesses"] for row in report["cycles"]] == [["y"]]


def test_xs_share_a_generator_when_n_soc_reaches_fewer_than_b(R):
    # n * (I : n) is x^2*y^2 + nI here, yet the index is 2
    I = Ideal(R, [R.parse("x^3"), R.parse("x^2*y^2"), R.parse("y^3")])
    bd = burch_data(I)
    assert bd.b == 2 and [str(bd.gens[j]) for j in bd.j_indices] == ["x^2*y^2"] * 2


def test_xs_share_a_binomial_generator_both_divide(R):
    # I = (x^3, y^3, x^2*y^2) written with a binomial g = x*y^3 + 6*x^2*y^2:
    # g = x * (y^3 + 6*x*y^2) = y * (x*y^2 + 6*x^2*y), both lifts in (I : n),
    # while y * s for a socle generator s only reaches g modulo nI (exit 4 before)
    import json

    from burchlab.cli import run_command
    from burchlab.jobs import parse_job

    ideal = ["x^3", "y^3", "x*y^3+6*x^2*y^2"]
    bd = burch_data(Ideal(R, [R.parse(g) for g in ideal]))
    assert [str(s) for s in bd.socle_lifts] == ["6*x*y^2 + y^3", "6*x^2*y + x*y^2"]
    assert [str(bd.gens[j]) for j in bd.j_indices] == ["6*x^2*y^2 + x*y^3"] * 2
    spec = parse_job(json.dumps({"name": "shared", "p": P, "vars": ["x", "y"],
                                 "ideal": ideal, "module": {"cyclic": ["x", "y"]}}))
    _, code = run_command("burch", spec)
    assert code == 0
