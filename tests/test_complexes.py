import pytest

from burchlab import contraction
from burchlab.bar import BarComplex
from burchlab.complexes import GradedFreeComplex, keyed_complex
from burchlab.contraction import minimalize
from burchlab.dgmodule import build_semifree_resolution
from burchlab.errors import InternalCheckError, ResourceCapError
from burchlab.matrices import PolyMatrix
from burchlab.resolve import ModulePresentation
from burchlab.ring import PolyRing
from burchlab.taylor import TaylorComplex

P = 32003


@pytest.fixture(scope="module")
def R():
    return PolyRing(P, ("x", "y"))


def test_koszul_on_one_element(R):
    K = TaylorComplex(R, [R.parse("x^2")])
    assert K.complex.poincare_coeffs() == [1, 1]
    assert str(K.complex.diff(1).entry(0, 0)) == "x^2"


def test_taylor_m2_shape_and_boundary(R, ):
    T = TaylorComplex(R, [R.parse("x^2"), R.parse("x*y"), R.parse("y^2")])
    assert T.complex.poincare_coeffs() == [1, 3, 3, 1]
    col = T.complex.diff(2).column(T.position[2][(0, 1)])
    # d e_{12} = +/- (y e_1 - x e_2) in the input order x^2, xy
    coeffs = {i: str(f) for i, f in col.coords.items()}
    assert coeffs in ({0: "32002*y", 1: "x"}, {0: "y", 1: "32002*x"})
    T.complex.check_homogeneous()


def test_keyed_complex_keeps_the_key_order_and_each_image_order(R):
    # C_0 = <"b", "a">, C_1 = <"e">, d(e) = y*a + x*b with the image listing a first
    x, y = R.parse("x"), R.parse("y")
    basis = {0: ["b", "a"], 1: ["e"]}
    cx, pos = keyed_complex(R, basis, lambda n, key: n, lambda n, key: {"a": y, "b": x})
    assert pos == {0: {"b": 0, "a": 1}, 1: {"e": 0}}
    assert cx.poincare_coeffs() == [2, 1] and cx.basis_degrees(1) == [1]
    assert list(cx.diff(1).columns[0].items()) == [(1, y), (0, x)]
    with pytest.raises(InternalCheckError, match="boundary key c of e is missing at degree 0$"):
        keyed_complex(R, basis, lambda n, key: n, lambda n, key: {"a": y, "c": x})


def test_taylor_squares_vanish(R):
    T = TaylorComplex(R, [R.parse("x^2"), R.parse("x*y"), R.parse("y^2")])
    for n in (1, 3):
        for t in range(T.complex.rank(n)):
            assert not T.product_basis(n, t, n, t).coords


def test_taylor_dg_axioms(R):
    T = TaylorComplex(R, [R.parse("x^4"), R.parse("x^2*y"), R.parse("y^2")])
    T.check_unit()
    T.check_leibniz()
    T.check_commutative()
    T.check_associative(6)


def test_taylor_exactness_over_Q(R):
    T = TaylorComplex(R, [R.parse("x^2"), R.parse("x*y"), R.parse("y^2")])
    for n in range(1, 4):
        assert T.complex.homology_is_zero(n)


def test_taylor_generator_guard(R):
    with pytest.raises(ResourceCapError):
        TaylorComplex(R, [R.monomial((a, 13 - a)) for a in range(13)])


# -- minimalize / contraction -------------------------------------------------


def test_minimal_input_identity_contraction(R):
    T = TaylorComplex(R, [R.parse("x^2"), R.parse("x*y"), R.parse("y^2")])
    ctr = minimalize(T.complex)
    assert ctr.small.poincare_coeffs() == [1, 3, 2]
    again = minimalize(ctr.small)
    assert again.small.poincare_coeffs() == [1, 3, 2]
    assert not again.htpy  # h = 0 on minimal input
    again.verify()


def test_minimalize_redundant_generator_hand_case(R):
    # {x^2, x^2*y}: the Taylor complex contracts onto the Koszul complex on x^2
    T = TaylorComplex(R, [R.parse("x^2"), R.parse("x^2*y")])
    ctr = minimalize(T.complex)
    assert ctr.small.poincare_coeffs() == [1, 1]
    assert str(ctr.small.diff(1).entry(0, 0)) == "x^2"
    ctr.verify()


def test_contraction_verify_catches_a_planted_homotopy_entry(R):
    # a new entry y in h_1 changes d h at degree 1 by y times a column of d_2
    T = TaylorComplex(R, [R.parse("x^2"), R.parse("x^2*y")])
    ctr = minimalize(T.complex)
    ctr.verify()
    h = ctr.htpy[1]
    assert not h.entry(0, 0) and T.complex.diff(2).columns.get(0)
    h.set_entry(0, 0, R.parse("y"))
    with pytest.raises(InternalCheckError, match=r"id - ip != dh \+ hd at degree 1"):
        ctr.verify()


@pytest.mark.parametrize("gens,minimal", [
    (["x^2", "x*y", "y^2"], [1, 3, 2]),
    (["x^4", "x^2*y", "y^2"], [1, 3, 2]),
    (["x^3", "x^2*y", "x*y", "y^2"], [1, 3, 2]),
])
def test_minimalize_corpus_taylor(R, gens, minimal):
    T = TaylorComplex(R, [R.parse(s) for s in gens])
    ctr = minimalize(T.complex)
    assert ctr.small.poincare_coeffs() == minimal
    ctr.verify()
    ctr.small.check_dd_zero()
    for n in range(1, len(minimal) - 1):
        assert ctr.small.homology_is_zero(n)


def test_minimalize_three_vars():
    R3 = PolyRing(P, ("x", "y", "z"))
    T = TaylorComplex(R3, [R3.parse(t) for t in ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"]],
                      verify=False)
    ctr = minimalize(T.complex)
    assert ctr.small.poincare_coeffs() == [1, 6, 8, 3]
    ctr.verify()


# -- the unit queue of minimalize keeps the elimination order ---------------


class ScanUnits:
    """The unit search minimalize made before its unit queue: after every
    elimination, scan the sorted columns of D and their sorted rows."""

    def __init__(self, D):
        self.D = D

    def push(self, j, i):
        pass

    def pop(self):
        for j in sorted(self.D):
            col = self.D[j]
            for i in sorted(col):
                u = contraction._unit_value(col[i])
                if u is not None:
                    return j, i, u
        return None


def eliminations(monkeypatch, search, cx):
    """minimalize(cx) with the unit search `search`: the contraction
    and the eliminated (n, column, row) in order."""
    per_degree = []

    class Recording(search):
        def __init__(self, D):
            super().__init__(D)
            per_degree.append([])

        def pop(self):
            hit = super().pop()
            if hit is not None:
                per_degree[-1].append(hit[:2])
            return hit

    with monkeypatch.context() as m:
        m.setattr(contraction, "_UnitQueue", Recording)
        ctr = minimalize(cx)
    return ctr, [(n, j, i) for n, pops in enumerate(per_degree, 1) for j, i in pops]


def matrices(ctr):
    return [{n: (m.row_degrees, m.col_degrees, m.columns) for n, m in maps.items()}
            for maps in (ctr.incl, ctr.proj, ctr.htpy, ctr.small.diffs)]


@pytest.mark.parametrize("case", ["Y of k", "Y of R/(x)", "dg bar of k"])
def test_unit_queue_eliminates_in_the_scan_order(monkeypatch, m2_ideal, case):
    X = TaylorComplex(m2_ideal.ring, m2_ideal.gens)
    R = m2_ideal.ring
    if case == "Y of R/(x)":
        pres = ModulePresentation.cyclic(m2_ideal, [R.parse("x")])
    else:
        pres = ModulePresentation.residue_field(m2_ideal)
    Y = build_semifree_resolution(pres, X, up_to=6)
    cx = Y.complex
    if case == "dg bar of k":
        cx = BarComplex(X, Y, m2_ideal, cap=5).complex
    queued, order = eliminations(monkeypatch, contraction._UnitQueue, cx)
    scanned, scan_order = eliminations(monkeypatch, ScanUnits, cx)
    assert order == scan_order and len(order) > 50
    assert matrices(queued) == matrices(scanned) and queued.alive == scanned.alive


def test_unit_queue_finds_a_unit_made_by_an_update(monkeypatch, R):
    # d_1 = [[1, 1, 0], [1, 0, 1]]: eliminating (0, 0) turns the empty entry
    # (1, 1) into -1, which comes before the unit (2, 1) that was there
    one = R.one()
    d1 = PolyMatrix(R, [0, 0], [0, 0, 0])
    for j, i in [(0, 0), (0, 1), (1, 0), (2, 1)]:
        d1.set_entry(i, j, one)
    cx = GradedFreeComplex(R, {0: [0, 0], 1: [0, 0, 0]}, {1: d1})
    queued, order = eliminations(monkeypatch, contraction._UnitQueue, cx)
    scanned, scan_order = eliminations(monkeypatch, ScanUnits, cx)
    assert order == scan_order == [(1, 0, 0), (1, 1, 1)]
    assert matrices(queued) == matrices(scanned)
    queued.verify()
