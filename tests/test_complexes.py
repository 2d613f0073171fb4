import operator

import pytest

from burchlab import contraction
from burchlab.bar import BarComplex
from burchlab.complexes import GradedFreeComplex, keyed_complex
from burchlab.contraction import minimalize
from burchlab.cycles import rho_cycles_general
from burchlab.dgmodule import build_semifree_resolution
from burchlab.errors import InternalCheckError, ResourceCapError
from burchlab.groebner import Strand
from burchlab.matrices import PolyMatrix, add_into
from burchlab.pipeline import _certified_cycles, dg_pair
from burchlab.resolve import ModulePresentation
from burchlab.ring import PolyRing
from burchlab.taylor import TaylorComplex
from support.checks import (check_associative, check_commutative, check_homogeneous, entry,
                            homology_is_zero, verify_contraction)

P = 32003


@pytest.fixture(scope="module")
def R():
    return PolyRing(P, ("x", "y"))


def test_koszul_on_one_element(R):
    K = TaylorComplex(R, [R.parse("x^2")])
    assert K.complex.poincare_coeffs() == [1, 1]
    assert str(entry(K.complex.diff(1), 0, 0)) == "x^2"


def test_taylor_m2_shape_and_boundary(R, ):
    T = TaylorComplex(R, [R.parse("x^2"), R.parse("x*y"), R.parse("y^2")])
    assert T.complex.poincare_coeffs() == [1, 3, 3, 1]
    col = T.complex.diff(2).column(T.position[2][(0, 1)])
    # d e_{12} = +/- (y e_1 - x e_2) in the input order x^2, xy
    coeffs = {i: str(f) for i, f in col.coords.items()}
    assert coeffs in ({0: "32002*y", 1: "x"}, {0: "y", 1: "32002*x"})
    check_homogeneous(T.complex)


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
            assert not T.action_basis(n, t, n, t).coords


def test_taylor_dg_axioms(R):
    T = TaylorComplex(R, [R.parse("x^4"), R.parse("x^2*y"), R.parse("y^2")])
    T.check_unit()
    T.check_leibniz()
    check_commutative(T)
    check_associative(T, 6)


def test_taylor_exactness_over_Q(R):
    T = TaylorComplex(R, [R.parse("x^2"), R.parse("x*y"), R.parse("y^2")])
    for n in range(1, 4):
        assert homology_is_zero(T.complex, n)


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
    verify_contraction(again)


def test_minimalize_redundant_generator_hand_case(R):
    # {x^2, x^2*y}: the Taylor complex contracts onto the Koszul complex on x^2
    T = TaylorComplex(R, [R.parse("x^2"), R.parse("x^2*y")])
    ctr = minimalize(T.complex)
    assert ctr.small.poincare_coeffs() == [1, 1]
    assert str(entry(ctr.small.diff(1), 0, 0)) == "x^2"
    verify_contraction(ctr)


def test_contraction_verify_catches_a_planted_homotopy_entry(R):
    # a new entry y in h_1 changes d h at degree 1 by y times a column of d_2
    T = TaylorComplex(R, [R.parse("x^2"), R.parse("x^2*y")])
    ctr = minimalize(T.complex)
    verify_contraction(ctr)
    h = ctr.htpy[1]
    assert not entry(h, 0, 0) and T.complex.diff(2).columns.get(0)
    h.set_entry(0, 0, R.parse("y"))
    with pytest.raises(InternalCheckError, match=r"id - ip != dh \+ hd at degree 1"):
        verify_contraction(ctr)


def test_contraction_verify_catches_a_planted_inclusion_entry(R):
    # p_1 = [1, y] on e_0, e_1 and i_1 = e_0: a new entry y at e_1 makes p i = 1 + y^2
    T = TaylorComplex(R, [R.parse("x^2"), R.parse("x^2*y")])
    ctr = minimalize(T.complex)
    verify_contraction(ctr)
    i = ctr.incl[1]
    assert not entry(i, 1, 0) and str(entry(ctr.proj[1], 0, 1)) == "y"
    i.set_entry(1, 0, R.parse("y"))
    with pytest.raises(InternalCheckError, match=r"p i != id at degree 1"):
        verify_contraction(ctr)


@pytest.mark.parametrize("gens,minimal", [
    (["x^2", "x*y", "y^2"], [1, 3, 2]),
    (["x^4", "x^2*y", "y^2"], [1, 3, 2]),
    (["x^3", "x^2*y", "x*y", "y^2"], [1, 3, 2]),
])
def test_minimalize_corpus_taylor(R, gens, minimal):
    T = TaylorComplex(R, [R.parse(s) for s in gens])
    ctr = minimalize(T.complex)
    assert ctr.small.poincare_coeffs() == minimal
    verify_contraction(ctr)
    ctr.small.check_dd_zero()
    for n in range(1, len(minimal) - 1):
        assert homology_is_zero(ctr.small, n)


def test_minimalize_three_vars():
    R3 = PolyRing(P, ("x", "y", "z"))
    T = TaylorComplex(R3, [R3.parse(t) for t in ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"]])
    ctr = minimalize(T.complex)
    assert ctr.small.poincare_coeffs() == [1, 6, 8, 3]
    verify_contraction(ctr)


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


def pair_complex(m2_ideal, case):
    """Y of k, Y of R/(x) over (x, y)^2 through degree 6, or the dg bar of k at cap 5."""
    R = m2_ideal.ring
    X = TaylorComplex(R, m2_ideal.gens)
    if case == "Y of R/(x)":
        pres = ModulePresentation.cyclic(m2_ideal, [R.parse("x")])
    else:
        pres = ModulePresentation.residue_field(m2_ideal)
    Y = build_semifree_resolution(pres, X, up_to=6)
    if case == "dg bar of k":
        return BarComplex(X, Y, m2_ideal, cap=5).complex
    return Y.complex


@pytest.mark.parametrize("case", ["Y of k", "Y of R/(x)", "dg bar of k"])
def test_unit_queue_eliminates_in_the_scan_order(monkeypatch, m2_ideal, case):
    cx = pair_complex(m2_ideal, case)
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
    verify_contraction(queued)


# -- i and h replayed from the elimination log ----------------------------


def eager_incl_htpy(cx, alive, log):
    """The inclusion and homotopy as minimalize accumulated them before its
    elimination log: updated at every elimination, lowest degree first, and
    assembled over the alive indices at the end.  log is a copy of
    minimalize's log taken before any replay; its rows keep only the i
    columns that are read, so the columns an elimination one degree up
    drops are not updated here (their values are never read)."""
    ring = cx.ring
    table = cx.rtable()
    times = operator.mul if table is None else table.mul
    i_cols = {n: {j: {j: ring.one()} for j in range(cx.rank(n))} for n in cx.degrees}
    h_cols = {n: {} for n in cx.degrees}
    for n in sorted(log):
        for c, inv, delta, pr in log[n]:
            ic = i_cols[n][c]
            if ic and pr:
                hc = h_cols.setdefault(n - 1, {})
                for v, pv in pr.items():
                    dest = hc.setdefault(v, {})
                    for w, iw in ic.items():
                        add_into(dest, w, times(pv, iw).scale(inv))
                    if not dest:
                        hc.pop(v, None)
            for j, dj in delta.items():
                target = i_cols[n][j]
                coeff = dj.scale(-inv)
                for w, iw in ic.items():
                    add_into(target, w, times(coeff, iw))
            del i_cols[n][c]
    incl, htpy = {}, {}
    for n, idxs in alive.items():
        im = PolyMatrix(ring, cx.basis_degrees(n), [cx.basis_degrees(n)[i] for i in idxs])
        for t, orig in enumerate(idxs):
            for w, f in i_cols[n][orig].items():
                im.set_entry(w, t, f)
        incl[n] = im
    for n, hc in h_cols.items():
        if hc:
            hm = PolyMatrix(ring, cx.basis_degrees(n + 1), cx.basis_degrees(n))
            for v, dest in hc.items():
                for w, f in dest.items():
                    hm.set_entry(w, v, f)
            htpy[n] = hm
    return incl, htpy


def ordered(maps):
    """Each matrix with its labels, column order, row order and term order."""
    return [(n, maps[n].row_degrees, maps[n].col_degrees,
             [(j, [(i, list(f.terms.items())) for i, f in col.items()])
              for j, col in maps[n].columns.items()])
            for n in sorted(maps)]


@pytest.mark.parametrize("case", ["Y of k", "Y of R/(x)", "dg bar of k"])
def test_replayed_incl_and_htpy_equal_the_eager_ones(m2_ideal, case):
    cx = pair_complex(m2_ideal, case)
    ctr = minimalize(cx)
    log = {n: list(steps) for n, steps in ctr.steps.log.items()}
    assert sum(map(len, log.values())) > 50
    incl, htpy = eager_incl_htpy(cx, ctr.alive, log)
    assert ordered(ctr.incl) == ordered(incl) and list(ctr.incl) == list(incl)
    assert ordered(ctr.htpy) == ordered(htpy) and htpy
    assert not ctr.steps.log  # every degree replayed, and its log dropped
    verify_contraction(ctr)


def test_truncated_contraction_replays_the_shared_log(m2_ideal):
    cx = pair_complex(m2_ideal, "Y of k")
    ctr = minimalize(cx)
    log = {n: list(steps) for n, steps in ctr.steps.log.items()}
    assert ctr.small.poincare_coeffs()[:4] == [1, 2, 1, 0]  # the Koszul complex on x, y
    short = ctr.truncated(1)
    incl, htpy = eager_incl_htpy(cx, ctr.alive, log)
    assert ordered(short.incl) == ordered({n: m for n, m in incl.items() if n <= 1})
    assert ordered(short.htpy) == ordered(htpy)
    assert short.incl_at(1) is ctr.incl_at(1) and short.htpy_at(3) is ctr.htpy_at(3)
    assert short.incl_at(2).cols == 0 and ctr.incl_at(2).cols == 1
    verify_contraction(short, through=1)


def counting_replays(monkeypatch):
    """Patch _Eliminations.replay to record the degree of every replay."""
    replayed = []
    original = contraction._Eliminations.replay

    def replay(self, n):
        replayed.append(n)
        return original(self, n)

    monkeypatch.setattr(contraction._Eliminations, "replay", replay)
    return replayed


def test_theorem_a_path_replays_nothing(monkeypatch, ctx_m2):
    replayed = counting_replays(monkeypatch)
    pres = ModulePresentation.residue_field(ctx_m2.ideal)
    X, Y = dg_pair(ctx_m2, pres, cap=5, algebra="taylor")
    bar = BarComplex(X, Y, ctx_m2.ideal, cap=5)
    rows = _certified_cycles(ctx_m2, bar, [4], rho_cycles_general)
    assert rows[0][:2] == (4, 1)  # one cycle, projected through p
    assert replayed == []


def test_htpy_is_replayed_once_per_degree(monkeypatch, m2_ideal):
    replayed = counting_replays(monkeypatch)
    ctr = minimalize(pair_complex(m2_ideal, "Y of k"))
    assert 2 in ctr.steps.log
    h = ctr.htpy_at(1)
    assert ctr.htpy_at(1) is h and replayed == [2]
    i = ctr.incl_at(2)  # built by the same replay
    assert replayed == [2] and 2 not in ctr.steps.log
    assert ctr.htpy[1] is h and ctr.incl[2] is i and replayed.count(2) == 1


# -- Strand.vector skips the summands above the top degree of R ---------------


def test_strand_vector_skips_a_row_above_top(m2_ideal):
    # R = k[x,y]/(x,y)^2 has top 1; at d = 2 the summand of degree 0 has
    # R_2 = 0, so an entry there is unread, whatever its terms
    R = m2_ideal.ring
    table = m2_ideal.table()
    assert table.top == 1
    strand = Strand(table, [1, 0], 2)
    assert strand.pairs == [(0, (0, 1)), (0, (1, 0))]   # y, x
    want = strand.vector({0: R.parse("3*x + y")})
    assert want == {0: 1, 1: 3}
    for above in ("x^2", "x*y + y^2", "x", "1"):
        assert strand.vector({0: R.parse("3*x + y"), 1: R.parse(above)}) == want


def test_strand_vector_raises_on_an_inhomogeneous_term_inside_the_range(m2_ideal):
    R = m2_ideal.ring
    strand = Strand(m2_ideal.table(), [1, 0], 2)
    with pytest.raises(InternalCheckError, match="strand vector outside the standard basis"):
        strand.vector({0: R.parse("x + 1"), 1: R.parse("x^2")})
