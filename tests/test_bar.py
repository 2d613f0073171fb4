from collections import Counter

import pytest

from burchlab.ainfty import AInfAlgebra, AInfModule
from burchlab.bar import BarComplex
from burchlab.burch import minimal_generators
from burchlab.contraction import minimalize
from burchlab.complexes import Strands
from burchlab.dgmodule import build_semifree_resolution, taylor_module_fast_path
from burchlab.errors import InternalCheckError
from burchlab.groebner import Ideal, Strand
from burchlab.linalg import rank_of
from burchlab.matrices import PolyMatrix, add_into
from burchlab.pipeline import Caps, ainf_pair, dg_pair
from burchlab.resolve import ModulePresentation, resolve_over_R
from burchlab.ring import PolyRing
from burchlab.taylor import TaylorComplex
from support.checks import entry

P = 32003


@pytest.fixture(scope="module")
def hyper_pair(hyper_ideal):
    R = hyper_ideal.ring
    X = TaylorComplex(R, [R.parse("x^2")])
    k = ModulePresentation.residue_field(hyper_ideal)
    return X, build_semifree_resolution(k, X, up_to=10)


def test_bar_of_ring_over_itself(hyper_ideal):
    R = hyper_ideal.ring
    X = TaylorComplex(R, [R.parse("x^2")])
    rm = ModulePresentation.cyclic(hyper_ideal, [])
    Y = build_semifree_resolution(rm, X, up_to=8)
    B = BarComplex(X, Y, hyper_ideal, cap=8, exact_through=7)
    assert B.rank_formula_check() == [1] * 9
    assert B.h0_dims(2) == [1, 1, 0]  # H_0 = R = k[x]/(x^2)


def test_bar_checks_its_rank_formula_at_construction(monkeypatch, hyper_ideal):
    from burchlab import bar

    R = hyper_ideal.ring
    X = TaylorComplex(R, [R.parse("x^2")])
    Y = build_semifree_resolution(ModulePresentation.cyclic(hyper_ideal, []), X, up_to=4)
    assert BarComplex(X, Y, hyper_ideal, cap=4).ranks == [1] * 5
    real = bar.poincare_bound_series
    monkeypatch.setattr(bar, "poincare_bound_series",
                        lambda px, py, cap: real(px, py, cap)[:-1] + [2])
    with pytest.raises(InternalCheckError, match="bar rank formula mismatch"):
        BarComplex(X, Y, hyper_ideal, cap=4)


def test_ainf_bar_periodicity_matches_resolution_oracle(hyper_ideal, hyper_pair):
    X, Y = hyper_pair
    algX = AInfAlgebra(minimalize(X.complex), X, arity_cap=4)
    ctrY = minimalize(Y.complex).truncated(8)
    mod = AInfModule(algX, ctrY, Y, arity_cap=4)
    B = BarComplex(algX, mod, hyper_ideal, cap=8, exact_through=7)
    ranks = B.rank_formula_check()
    # independent oracle: the minimal R-free resolution of k
    k = ModulePresentation.residue_field(hyper_ideal)
    res = resolve_over_R(k, 8)
    assert ranks == res.poincare_coeffs() == [1] * 9
    assert B.complex.is_minimal()
    assert B.h0_dims(2) == [1, 0, 0]


def bione_structures(bione_ideal, regime):
    """(X, Y) of the Taylor fast path for R/(x^2, y), or their transferred pair."""
    R = bione_ideal.ring
    X, Ymod, ctr_x, ctr_y = taylor_module_fast_path(
        R, minimal_generators(bione_ideal.gens, R), [R.parse("x^2"), R.parse("y")])
    if regime == "dg":
        Ymod.check_leibniz()   # the dg bar reads the action above the fast path's depth
        return X, Ymod
    alg = AInfAlgebra(ctr_x, X, arity_cap=4)
    return alg, AInfModule(alg, ctr_y, Ymod, arity_cap=4)


@pytest.mark.parametrize("regime", ["dg", "ainf"])
def test_bar_on_sign_sensitive_ring(bione_ideal, regime):
    # n^2 is not inside I here, so wrong bar signs cannot hide modulo I
    R = bione_ideal.ring
    B = BarComplex(*bione_structures(bione_ideal, regime), bione_ideal, cap=6, exact_through=5)
    B.rank_formula_check()
    M = ModulePresentation.cyclic(bione_ideal, [R.parse("x^2"), R.parse("y")])
    assert B.h0_dims(3) == M.dims(3)


def test_dg_bar_rank_formula_mixed_shape(m2_ideal):
    # ranks (1,3,3,1) x (1,2,1)-shaped Y: the composition count must match
    # the generating function expansion exactly
    R = m2_ideal.ring
    X, Ymod, _, _ = taylor_module_fast_path(
        R, minimal_generators(m2_ideal.gens, R), [R.parse("x"), R.parse("y")])
    Ymod.check_leibniz()   # the dg bar reads the action above the fast path's depth
    B = BarComplex(X, Ymod, m2_ideal, cap=6)
    ranks = B.rank_formula_check()
    # hand expansion of (1+t)^5 / (1 - t((1+t)^3 - 1)) through degree 4
    assert ranks[:5] == [1, 5, 13, 28, 60]


def test_ainf_bar_golod_ranks(m2_ideal, m23_ideal):
    R = m2_ideal.ring
    X, Ymod, ctr_x, ctr_y = taylor_module_fast_path(
        R, minimal_generators(m2_ideal.gens, R), [R.parse("x"), R.parse("y")])
    alg = AInfAlgebra(ctr_x, X)
    mod = AInfModule(alg, ctr_y, Ymod)
    B = BarComplex(alg, mod, m2_ideal, cap=8, exact_through=7)
    assert B.rank_formula_check() == [2 ** i for i in range(9)]
    assert B.complex.is_minimal()

    R3 = m23_ideal.ring
    X3, Y3, ctr_x, ctr_y = taylor_module_fast_path(
        R3, minimal_generators(m23_ideal.gens, R3), [R3.var(i) for i in range(3)])
    alg3 = AInfAlgebra(ctr_x, X3)
    mod3 = AInfModule(alg3, ctr_y, Y3)
    B3 = BarComplex(alg3, mod3, m23_ideal, cap=6, exact_through=5)
    assert B3.rank_formula_check() == [3 ** i for i in range(7)]
    assert B3.complex.is_minimal()


def test_dg_and_ainf_bars_agree_on_identity_contractions():
    # X = Y = Taylor(x^2, y^2) are minimal, so both contractions are
    # identities and the transferred pair is the dg pair itself
    R = PolyRing(P, ("x", "y"))
    I = Ideal(R, [R.parse("x^2"), R.parse("y^2")])
    X, Ymod, ctr_x, ctr_y = taylor_module_fast_path(R, minimal_generators(I.gens, R), [])
    Ymod.check_leibniz()   # the dg bar reads the action above the fast path's depth
    Bdg = BarComplex(X, Ymod, I, cap=6)
    alg = AInfAlgebra(ctr_x, X)
    mod = AInfModule(alg, ctr_y, Ymod)
    Bainf = BarComplex(alg, mod, I, cap=6)
    assert [Bdg.rank(n) for n in range(7)] == [1, 2, 3, 5, 8, 13, 21]
    for n in range(7):
        assert Bdg.complex.basis_degrees(n) == Bainf.complex.basis_degrees(n)
        assert Bdg.complex.diff(n).columns == Bainf.complex.diff(n).columns


def ainf_bar_of_k(m2_ideal, cap, exact_through=None):
    """The minimal A-infinity bar of k over k[x,y]/(x,y)^2; ranks 2^i, exact."""
    R = m2_ideal.ring
    X, Ymod, ctr_x, ctr_y = taylor_module_fast_path(
        R, minimal_generators(m2_ideal.gens, R), [R.parse("x"), R.parse("y")])
    alg = AInfAlgebra(ctr_x, X)
    mod = AInfModule(alg, ctr_y, Ymod)
    return BarComplex(alg, mod, m2_ideal, cap=cap, exact_through=exact_through)


def bar_homology(B) -> dict:
    """{n: strand dimensions of H_n(B)} for the n in 1..cap - 1 with H_n != 0,
    on strands built afresh, so a change made after construction is seen."""
    strands = Strands(B.complex)
    return {n: dims for n in range(1, B.cap) if (dims := strands.homology(n))}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exactness_check_catches_a_zeroed_column(m2_ideal, n):
    # zeroing a column of d_(n+1) keeps d_n o d_(n+1) = 0, but the column is a
    # minimal generator of the boundaries, so H_n(B) != 0
    B = ainf_bar_of_k(m2_ideal, cap=5)
    assert not bar_homology(B)
    del B.complex.diff(n + 1).columns[0]
    assert min(bar_homology(B)) == n


def test_exactness_check_ranks_each_strand_once(m2_ideal, monkeypatch):
    B = ainf_bar_of_k(m2_ideal, cap=5)
    built = Counter()
    real = Strands.columns

    def counted(self, n, d):
        built[n, d] += 1
        return real(self, n, d)

    monkeypatch.setattr(Strands, "columns", counted)
    strands = Strands(B.complex)
    for n in range(1, 5):
        assert not strands.homology(n)
    assert set(built.values()) == {1}
    needed = {(m, d) for n in range(1, 5) for d in strands.degrees(n) for m in (n, n + 1)}
    assert set(built) == needed


def test_empty_target_strands_are_ranked_without_vectorizing(m2_ideal, monkeypatch):
    # a strand of d_n whose target strand is empty has rank 0 and dimension
    # len(source); every dimension of H_n must equal that of ranks taken by
    # vectorizing every strand in full
    B = ainf_bar_of_k(m2_ideal, cap=5)
    del B.complex.diff(3).columns[0]   # so that H_2 != 0
    cx, table = B.complex, m2_ideal.table()

    def full_rank(n, d):
        return rank_of(table.matrix_strand(cx.diff(n), d)[1], P)

    want = {}
    for n in range(B.cap + 1):
        dims = {d: len(Strand(table, cx.basis_degrees(n), d)) - full_rank(n, d)
                - full_rank(n + 1, d) for d in Strands(cx).degrees(n)}
        want[n] = {d: h for d, h in dims.items() if h}
    assert want[2] and not want[1]
    real, empty = Strand.vector, []

    def vector(self, *args):
        if not self:
            empty.append(self.d)
        return real(self, *args)

    monkeypatch.setattr(Strand, "vector", vector)
    strands = Strands(cx, exact_through=B.cap - 1)
    strands.check_dd_zero()
    assert {n: strands.homology(n) for n in range(B.cap + 1)} == want
    assert not empty


@pytest.mark.parametrize("through", [5, 6])
def test_exactness_check_at_or_above_the_cap_is_a_value_error(m2_ideal, through):
    # B_(cap+1) is not built, so homology at the cap would be an artefact
    with pytest.raises(ValueError, match="cap 5"):
        ainf_bar_of_k(m2_ideal, cap=5, exact_through=through)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dd_zero_catches_a_planted_unit_at_the_top_degree(m2_ideal, n):
    # adding 1 to entry (i, 0) of d_n adds column i of d_(n-1), whose entries
    # are linear, to column 0 of d_(n-1) o d_n: a nonzero product in degree
    # 0 + 1 = top, the highest degree the reduced product must still form
    B = ainf_bar_of_k(m2_ideal, cap=5)
    B.complex.check_dd_zero()
    R = m2_ideal.ring
    dn = B.complex.diff(n)
    i = next(iter(dn.columns[0]))
    assert B.complex.diff(n - 1).columns.get(i)
    dn.set_entry(i, 0, entry(dn, i, 0) + R.one())
    with pytest.raises(InternalCheckError, match=f"d_{n-1} o d_{n} != 0"):
        B.complex.check_dd_zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dd_zero_passes_a_planted_change_whose_products_lie_above_top(m2_ideal, n):
    # adding x to every entry of column 0 of d_n changes d_(n-1) o d_n and
    # d_n o d_(n+1) over Q only by products of two linear forms, all in I
    B = ainf_bar_of_k(m2_ideal, cap=5)
    R = m2_ideal.ring
    x = R.parse("x")
    dn = B.complex.diff(n)
    delta = PolyMatrix(R, dn.row_degrees, dn.col_degrees)
    for i in list(dn.columns[0]):
        dn.set_entry(i, 0, entry(dn, i, 0) + x)
        delta.set_entry(i, 0, x)
    assert not B.complex.diff(n - 1).compose(delta).is_zero()   # nonzero over Q
    for m in (n, n + 1):
        full = B.complex.diff(m - 1).compose(B.complex.diff(m))   # products over Q
        assert not any(m2_ideal.normal_form(f) for col in full.columns.values()
                       for f in col.values())
    B.complex.check_dd_zero()


# -- the dg differential against the formula of bar.py's docstring -------------


def dg_formula_boundary(B, w):
    """d(r[x_1|..|x_p]y) by the four dg terms of bar.py's docstring, read
    from X's differential and product and Y's differential and action."""
    X, Y = B.alg, B.mod
    xs, y = w[:-1], w[-1]
    yd, yi = y
    p = len(xs)
    eps = [0]   # eps[t]: shifted degrees of the slots before x_(t+1)
    for d, _ in xs:
        eps.append(eps[-1] + d + 1)
    out = {}

    def put(sign, word, f):
        add_into(out, word, f if sign > 0 else -f)

    for t, (d, i) in enumerate(xs):   # r[..|dx_t|..]y
        for k, f in X.complex.diff(d).column(i).coords.items():
            if d == 1:
                assert not B.quotient.normal_form(f)   # dx_t lies in I X_0
            else:
                put((-1) ** eps[t], xs[:t] + ((d - 1, k),) + xs[t + 1:] + (y,), f)
    if yd >= 1:                        # r[..]dy
        for k, f in Y.complex.diff(yd).column(yi).coords.items():
            put((-1) ** eps[p], xs + ((yd - 1, k),), f)
    for t in range(p - 1):             # r[..|x_t x_(t+1)|..]y
        (da, ia), (db, ib) = xs[t], xs[t + 1]
        for k, f in X.action_basis(da, ia, db, ib).coords.items():
            put(-(-1) ** eps[t + 1], xs[:t] + ((da + db, k),) + xs[t + 2:] + (y,), f)
    if p:                              # r[x_1|..|x_(p-1)](x_p y)
        da, ia = xs[-1]
        for k, f in Y.action_basis(da, ia, yd, yi).coords.items():
            put(-(-1) ** eps[p], xs[:-1] + ((da + yd, k),), f)
    red = B.quotient.normal_form
    return {word: red(f) for word, f in out.items() if red(f)}


@pytest.mark.parametrize("algebra", ["taylor", "tate"])
@pytest.mark.parametrize("module", ["k", "R/(x)"])
def test_dg_bar_differential_is_the_docstring_formula(ctx_m2, m2_ideal, module, algebra):
    R = m2_ideal.ring
    pres = (ModulePresentation.residue_field(m2_ideal) if module == "k"
            else ModulePresentation.cyclic(m2_ideal, [R.parse("x")]))
    X, Y = dg_pair(ctx_m2, pres, cap=5, algebra=algebra)
    B = BarComplex(X, Y, m2_ideal, cap=5)
    checked = 0
    for n in range(6):
        for a, w in enumerate(B.words[n]):
            want = dg_formula_boundary(B, w)
            assert B.differential_of_word(w) == want, w
            if n:
                assert dict(assembled_boundary(B, n, a)) == want, w
            checked += 1
    assert checked == sum(B.rank(n) for n in range(6)) > 100


# -- each block's image is computed once per assembly --------------------------


def assembled_boundary(B, n, a):
    """Column a of the assembled d_n as a list of (word, Polynomial), in the
    column's entry order."""
    return [(B.words[n - 1][r], f) for r, f in B.complex.diff(n).columns.get(a, {}).items()]


def per_word_boundary(B, w):
    """d(w) with op called on every block of w and nothing reused: each
    coefficient times (-1)^(eps + susp), then its normal form."""
    red = B.quotient.normal_form
    out = {}
    eps = 0
    for j in range(len(w)):
        for i in range(1, len(w) - j + 1):
            block = w[j:j + i]
            on_y = j + i == len(w)
            out_deg = sum(d for d, _ in block) + i - 2
            if out_deg < (0 if on_y else 1):
                continue
            susp = sum((i - 1 - u) * block[u][0] for u in range(i - 1))
            for idx, f in (B.mod if on_y else B.alg).op(i, block).coords.items():
                add_into(out, w[:j] + ((out_deg, idx),) + w[j + i:],
                         red(-f if (eps + susp) % 2 else f))
        eps += w[j][0] + 1
    return out


def test_ainf_bar_matrices_are_the_per_word_evaluation(m2_ideal):
    # entry order and each polynomial's term order included
    B = ainf_bar_of_k(m2_ideal, cap=6)
    for n in range(1, 7):
        for a, w in enumerate(B.words[n]):
            want = [(word, list(f.terms.items())) for word, f in per_word_boundary(B, w).items()]
            got = [(word, list(f.terms.items())) for word, f in assembled_boundary(B, n, a)]
            assert got == want, w
    assert B.rank(6) == 64


@pytest.mark.parametrize("regime", ["dg", "ainf"])
def test_assembly_calls_op_once_per_distinct_block(bione_ideal, regime, monkeypatch):
    alg, mod = bione_structures(bione_ideal, regime)
    calls = Counter()
    for on_y, structure in ((False, alg), (True, mod)):
        def counted(n, refs, _on_y=on_y, _real=structure.op):
            calls[_on_y, tuple(refs)] += 1
            return _real(n, refs)

        monkeypatch.setattr(structure, "op", counted)
    B = BarComplex(alg, mod, bione_ideal, cap=6)
    assert calls and set(calls.values()) == {1}
    # without reuse, every block that passes the degree filter is one call
    blocks = sum(1 for n in range(7) for w in B.words[n] for j in range(len(w))
                 for i in range(1, len(w) - j + 1)
                 if sum(d for d, _ in w[j:j + i]) + i - 2 >= (0 if j + i == len(w) else 1))
    assert blocks > 2 * len(calls)
    # the images are dropped with assembly: a later call reads op afresh
    calls.clear()
    top = B.words[6][-1]
    got = B.differential_of_word(top)
    assert calls
    assert got == per_word_boundary(B, top)


@pytest.mark.parametrize("pair", [(1, 0, 0, 0), (1, 1, 1, 0)])
def test_a_sign_planted_in_the_action_is_caught_at_construction(bione_ideal, pair):
    # the planted product is read once and reused in every word holding it
    X, Y = bione_structures(bione_ideal, "dg")
    real = Y.action_basis
    read = []

    def planted(dx, ix, ny, iy):
        v = real(dx, ix, ny, iy)
        if (dx, ix, ny, iy) == pair:
            read.append(pair)
            return -v
        return v

    Y.action_basis = planted
    with pytest.raises(InternalCheckError, match=r"d_\d o d_\d != 0"):
        BarComplex(X, Y, bione_ideal, cap=5)
    assert read == [pair]


def test_a_boundary_word_outside_the_bar_is_an_internal_error(bione_ideal, monkeypatch):
    # d of every y of degree 1 planted to also hit y index 999 of degree 0,
    # so the word ((0, 999),) lies outside B_0
    X, Y = bione_structures(bione_ideal, "dg")
    real = BarComplex._block_image
    one = bione_ideal.ring.one()

    def planted(self, on_y, block):
        image = real(self, on_y, block)
        if on_y and block[0][0] == 1 and len(block) == 1:
            image += (((0, 999), one, -one),)
        return image

    monkeypatch.setattr(BarComplex, "_block_image", planted)
    with pytest.raises(InternalCheckError,
                       match=r"boundary key \(\(0, 999\),\) of \(\(1, 0\),\) is missing at degree 0"):
        BarComplex(X, Y, bione_ideal, cap=3)


# -- dg_pair builds Y as deep as B(R, X, Y) reads it ---------------------------


@pytest.mark.parametrize("algebra", ["taylor", "tate"])
def test_dg_pair_builds_y_through_the_bar_cap_only(ctx_m2, m2_ideal, algebra):
    # a generator of degree cap + 1 only adds pairs of degree >= cap + 1, so
    # the round that adjoins it changes nothing the bar complex reads
    cap = 5
    k = ModulePresentation.residue_field(m2_ideal)
    X, Y = dg_pair(ctx_m2, k, cap=cap, algebra=algebra)
    assert max(g.degree for g in Y.generators) == cap
    deep = build_semifree_resolution(k, X, up_to=cap + 1)
    assert max(g.degree for g in deep.generators) == cap + 1
    for n in range(cap + 1):
        assert Y.complex.basis_degrees(n) == deep.complex.basis_degrees(n)
    for n in range(1, cap + 1):
        ours, theirs = Y.complex.diff(n), deep.complex.diff(n)
        assert (ours.rows, ours.cols, ours.columns) == (theirs.rows, theirs.cols, theirs.columns)
    B = BarComplex(X, Y, m2_ideal, cap=cap, exact_through=cap - 1)
    B_deep = BarComplex(X, deep, m2_ideal, cap=cap)
    assert B.words == B_deep.words
    for n in range(1, cap + 1):
        assert B.complex.diff(n).columns == B_deep.complex.diff(n).columns

    # one round short, H_(cap-1)(Y) is not killed and the bar complex sees it
    short = build_semifree_resolution(k, X, up_to=cap - 1)
    with pytest.raises(InternalCheckError, match=f"bar homology at degree {cap - 1}:"):
        BarComplex(X, short, m2_ideal, cap=cap, exact_through=cap - 1)


# -- d o d = 0 and exactness on one set of F_p strands ------------------------


def free_module_structures(m2_ideal):
    """The transferred pair of M = R over k[x,y]/(x,y)^2: M is not Golod, so
    its A-infinity bar has unit entries and products that survive modulo I."""
    X = TaylorComplex(m2_ideal.ring, m2_ideal.gens)
    Y = build_semifree_resolution(ModulePresentation.cyclic(m2_ideal, []), X, up_to=6)
    alg = AInfAlgebra(minimalize(X.complex), X)
    return alg, AInfModule(alg, minimalize(Y.complex).truncated(5), Y)


@pytest.mark.parametrize("regime", ["dg", "ainf"])
def test_a_sign_planted_in_a_block_image_is_caught_on_strands(bione_ideal, m2_ideal, regime,
                                                             monkeypatch):
    # X's product on (x_(1,0), x_(1,1)) negated: homogeneous, so only d o d
    # can see it.  A minimal A-infinity bar whose entries multiply into I
    # cannot see any plant, so the ainf case is the non-Golod M = R
    ideal = bione_ideal if regime == "dg" else m2_ideal
    alg, mod = (bione_structures(bione_ideal, "dg") if regime == "dg"
                else free_module_structures(m2_ideal))
    block = ((1, 0), (1, 1))
    real = BarComplex._block_image
    read = []

    def planted(self, on_y, blk):
        image = real(self, on_y, blk)
        if not on_y and blk == block:
            read.append(blk)
            return tuple((ref, neg, pos) for ref, pos, neg in image)
        return image

    BarComplex(alg, mod, ideal, cap=5)   # builds without the plant
    monkeypatch.setattr(BarComplex, "_block_image", planted)
    with pytest.raises(InternalCheckError, match=r"d_\d o d_\d != 0"):
        BarComplex(alg, mod, ideal, cap=5)
    assert read   # the plant was in the bar


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_construction_with_exact_through_catches_a_zeroed_boundary(m2_ideal, n, monkeypatch):
    # the first word of degree n + 1 is a minimal generator of the boundaries;
    # with its boundary zeroed d o d = 0 still holds, so only exactness sees it
    word = ainf_bar_of_k(m2_ideal, cap=5).words[n + 1][0]
    real = BarComplex.differential_of_word
    monkeypatch.setattr(BarComplex, "differential_of_word",
                        lambda self, w: {} if w == word else real(self, w))
    assert not ainf_bar_of_k(m2_ideal, cap=5).complex.diff(n + 1).columns.get(0)
    with pytest.raises(InternalCheckError, match=f"bar homology at degree {n}:"):
        ainf_bar_of_k(m2_ideal, cap=5, exact_through=4)


def test_exact_through_at_or_above_the_cap_is_a_value_error(m2_ideal, monkeypatch):
    # the depth is refused before any bar word is assembled
    assembled = []
    real = BarComplex.differential_of_word
    monkeypatch.setattr(BarComplex, "differential_of_word",
                        lambda self, w: assembled.append(w) or real(self, w))
    with pytest.raises(ValueError, match="cap 5"):
        ainf_bar_of_k(m2_ideal, cap=5, exact_through=5)
    assert not assembled


@pytest.mark.parametrize("exact_through", [None, 2, 4])
def test_construction_vectorizes_each_strand_column_once(m2_ideal, monkeypatch, exact_through):
    from burchlab import complexes
    from burchlab.groebner import Strand

    built = Counter()    # (basis degrees, d) -> Strand objects built
    vectorized = Counter()   # (target strand, column, multiplier) -> vector calls

    class Counted(Strand):
        __slots__ = ()

        def __init__(self, table, degrees, d):
            built[tuple(degrees), d] += 1
            super().__init__(table, degrees, d)

        def vector(self, coords, mono=None):
            if coords:   # an empty column is a new dict on every read
                vectorized[id(self), id(coords), mono] += 1
            return super().vector(coords, mono)

    monkeypatch.setattr(complexes, "Strand", Counted)
    B = ainf_bar_of_k(m2_ideal, cap=5, exact_through=exact_through)
    assert built and set(built.values()) == {1}
    assert vectorized and set(vectorized.values()) == {1}
    if exact_through is not None:
        # the strands exactness ranks are among those built
        cx = B.complex
        strands = Strands(cx)
        needed = {(tuple(cx.basis_degrees(m)), d) for n in range(1, exact_through + 1)
                  for d in strands.degrees(n) for m in (n, n + 1)}
        assert needed <= set(built)


def bar_fixtures(hyper_ideal, bione_ideal, m2_ideal, ctx_m2):
    """(name, BarComplex) over the test fixtures' rings, both regimes."""
    R = hyper_ideal.ring
    X = TaylorComplex(R, [R.parse("x^2")])
    yield "hyper dg", BarComplex(
        X, build_semifree_resolution(ModulePresentation.cyclic(hyper_ideal, []), X, up_to=5),
        hyper_ideal, cap=5)
    for regime in ("dg", "ainf"):
        yield f"bione {regime}", BarComplex(*bione_structures(bione_ideal, regime),
                                            bione_ideal, cap=5)
    yield "m2 ainf", ainf_bar_of_k(m2_ideal, cap=5)
    yield "m2 ainf of R", BarComplex(*free_module_structures(m2_ideal), m2_ideal, cap=5)
    k = ModulePresentation.residue_field(m2_ideal)
    yield "m2 tate dg", BarComplex(*dg_pair(ctx_m2, k, cap=4, algebra="tate"), m2_ideal, cap=4)


def caught(check) -> bool:
    try:
        check()
    except InternalCheckError as err:
        assert "o d_" in str(err)
        return True
    return False


def test_the_strand_check_agrees_with_compose(hyper_ideal, bione_ideal, m2_ideal, ctx_m2):
    # homogeneous plants in one entry at a time: double it, add another
    # standard monomial of its degree, zero it; each verdict on strands (with
    # and without the exactness strands wanted) must be the compose verdict
    verdicts = Counter()
    for name, B in bar_fixtures(hyper_ideal, bione_ideal, m2_ideal, ctx_m2):
        cx = B.complex
        table = cx.rtable()
        assert not caught(cx.check_dd_zero)
        assert not caught(Strands(cx).check_dd_zero)
        for n in range(1, B.cap + 1):
            dn = cx.diff(n)
            for j in sorted(dn.columns)[:3]:
                i, f = next(iter(dn.columns[j].items()))
                others = [m for m in table.basis(sum(next(iter(f.terms)))) if m not in f.terms]
                plants = [f + f, cx.ring.zero()] + [f + cx.ring.monomial(m) for m in others[:1]]
                for g in plants:
                    dn.set_entry(i, j, g)
                    want = caught(cx.check_dd_zero)
                    assert caught(Strands(cx).check_dd_zero) == want, (name, n, j)
                    assert caught(Strands(cx, B.cap - 1).check_dd_zero) == want, (name, n, j)
                    verdicts[want] += 1
                dn.set_entry(i, j, f)
        assert not caught(Strands(cx).check_dd_zero)
    assert verdicts[True] > 20 and verdicts[False] > 20, verdicts


@pytest.mark.parametrize("command", ["bar dg", "bar ainf", "verify-golod"])
def test_the_commands_check_exactness_at_construction(ctx_m2, m2_ideal, command, monkeypatch):
    # bar_report and golod_check (verify-golod's bar) pass exact_through:
    # a boundary zeroed during assembly keeps d o d = 0 and ends in the
    # homology error that construction raises
    from burchlab import pipeline

    k = ModulePresentation.residue_field(m2_ideal)
    caps = pipeline.Caps(hom_degree=4)
    real = BarComplex.differential_of_word
    monkeypatch.setattr(BarComplex, "differential_of_word",
                        lambda self, w: {} if len(w) == 3 else real(self, w))
    with pytest.raises(InternalCheckError, match="bar homology at degree"):
        if command == "verify-golod":
            pipeline.verify_golod(ctx_m2, k, caps)
        else:
            pipeline.bar_report(ctx_m2, k, caps, command.split()[1])


@pytest.mark.parametrize("ctx", ["ctx_m2", "ctx_bione", "ctx_jn"])
@pytest.mark.parametrize("module", ["k", "R/(x)"])
def test_complexes_over_r_hold_nonzero_normal_forms(request, ctx, module):
    # minimalize and minimal_module_generators read entries as stored, which
    # holds only if every complex over R is built from nonzero normal forms
    ctx = request.getfixturevalue(ctx)
    ideal = ctx.ideal
    if module == "k":
        pres = ModulePresentation.residue_field(ideal)
    else:
        pres = ModulePresentation.cyclic(ideal, [ctx.ring.parse("x")])
    bars = [BarComplex(*dg_pair(ctx, pres, cap=5, algebra=algebra), ideal, cap=5)
            for algebra in ("taylor", "tate")]
    bars.append(BarComplex(*ainf_pair(ctx, pres, Caps(hom_degree=5)), ideal, cap=5))
    complexes = [bar.complex for bar in bars] + [minimalize(bar.complex).small for bar in bars]
    complexes.append(resolve_over_R(pres, 5))
    for cx in complexes:
        assert cx.quotient is ideal
        entries = [f for n in range(1, cx.top() + 1)
                   for col in cx.diff(n).columns.values() for f in col.values()]
        assert entries and all(f and ideal.normal_form(f) == f for f in entries)
