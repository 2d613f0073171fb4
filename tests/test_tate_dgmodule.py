import json
import re
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from burchlab import pipeline, tate
from burchlab.burch import minimal_generators
from burchlab.cli import run_command
from burchlab.complexes import GradedFreeComplex
from burchlab.dgmodule import (SemifreeDgModule, TaylorDgModule, build_semifree_resolution,
                               taylor_module_fast_path)
from burchlab.errors import InternalCheckError
from burchlab.groebner import Ideal, syzygies_of
from burchlab.jobs import load_job
from burchlab.matrices import FreeModuleElement, PolyMatrix
from burchlab.report import assemble, reports_equal
from burchlab.resolve import (ModulePresentation, kernel_gens_over_R,
                              minimal_module_generators, resolve_over_R)
from burchlab.tate import TateAlgebra, acyclic_closure, check_adjunction, homology_generators
from burchlab.taylor import DgModule, TaylorComplex, bilinear
from support.checks import (check_associative, check_commutative, check_homogeneous, copy,
                            homology_is_zero)

P = 32003


def resolve_k(ideal, X, up_to):
    """The semifree resolution of the residue field over X."""
    return build_semifree_resolution(ModulePresentation.residue_field(ideal), X, up_to=up_to)


def closure(ideal, through):
    """The acyclic closure of Q/ideal on the minimal generating list of ideal."""
    return acyclic_closure(ideal.ring, minimal_generators(ideal.gens, ideal.ring), through)


def test_hypersurface_closure_is_koszul(hyper_ideal):
    A = closure(hyper_ideal, through=6)
    assert A.complex.poincare_coeffs() == [1, 1]
    A.check_unit()
    A.check_leibniz()


def test_m2_acyclic_closure_ranks(m2_ideal):
    A = closure(m2_ideal, through=6)
    assert A.complex.poincare_coeffs() == [1, 3, 5, 10, 24, 55, 118]
    A.check_unit()
    A.check_leibniz(4)
    check_commutative(A, 4)
    check_associative(A, 4)
    A.complex.check_dd_zero()
    for n in range(1, 5):
        assert homology_is_zero(A.complex, n)


def test_tate_basis_listing_takes_thousands_of_variables(m2_ideal):
    # one recursion level per variable overflowed Python's stack at about
    # 1,000 variables; a closure can have more
    A = TateAlgebra(m2_ideal.ring, degree_cap=2)
    for degree in [2] * 600 + [3] * 600:   # 600 of them above the cap
        A.adjoin(degree, 0, {})
    assert A.complex.poincare_coeffs() == [1, 0, 600]
    assert A._basis[2] == [((v, 1),) for v in range(600)]


def test_divided_power_arithmetic(m2_ideal):
    A = closure(m2_ideal, through=6)
    # gamma_a(v) * gamma_b(v) = binom(a+b, a) gamma_{a+b}(v) for a degree-2 variable
    v = next(i for i, g in enumerate(A.generators) if g.degree == 2)
    one = (0,) * m2_ideal.ring.nvars
    assert A.mul_keys(2, ((v, 1),), 2, ((v, 1),)) == ((((v, 2),), one, 2),)


def test_fast_path_module(m2_ideal):
    R = m2_ideal.ring
    X, Y, _, _ = taylor_module_fast_path(
        R, minimal_generators(m2_ideal.gens, R), [R.parse("x"), R.parse("y")])
    assert X.complex.poincare_coeffs() == [1, 3, 3, 1]
    assert Y.complex.poincare_coeffs() == [1, 5, 10, 10, 5, 1]
    Y.check_unit()
    Y.check_leibniz()
    check_associative(Y, 5)
    for n in range(1, 5):
        assert homology_is_zero(Y.complex, n)
    # psi(x) = x * y_0 is multiplicative: psi(a * b) = a * psi(b)
    y0 = FreeModuleElement.basis(R, 0)
    for da in range(X.complex.top() + 1):
        for db in range(X.complex.top() + 1 - da):
            for ia in range(X.complex.rank(da)):
                for ib in range(X.complex.rank(db)):
                    left = bilinear(Y.action_terms, da + db, X.action_basis(da, ia, db, ib),
                                    0, y0)
                    right = bilinear(Y.action_terms, da, FreeModuleElement.basis(R, ia),
                                     db, Y.action_basis(db, ib, 0, 0))
                    assert left == right


@pytest.mark.parametrize("case", ["taylor", "fast_path", "tate_hyper", "tate_m2", "semifree"])
def test_the_boxed_products_are_the_rule(case, m2_ideal, hyper_ideal):
    # action_basis boxes the rule's triples, entry for entry, on
    # every pair of basis elements within the degree caps
    R = m2_ideal.ring
    if case == "taylor":
        Y = TaylorComplex(R, m2_ideal.gens)
    elif case == "fast_path":
        _, Y, _, _ = taylor_module_fast_path(
            R, minimal_generators(m2_ideal.gens, R), [R.parse("x"), R.parse("y")])
    elif case.startswith("tate"):
        Y = closure(hyper_ideal if case == "tate_hyper" else m2_ideal, through=4)
    else:
        Y = resolve_k(m2_ideal, TaylorComplex(R, m2_ideal.gens), up_to=3)
    X, top = Y.algebra, Y.complex.top()
    checked = 0
    for dx in range(X.complex.top() + 1):
        for ny in range(top + 1 - dx):
            for ix, iy in product(range(X.complex.rank(dx)), range(Y.complex.rank(ny))):
                terms = Y.action_terms(dx, ix, ny, iy)
                assert isinstance(terms, tuple)
                assert all(0 < c < P and i < Y.complex.rank(dx + ny) for i, _, c in terms)
                want = [(i, [(m, c)]) for i, m, c in terms]
                got = Y.action_basis(dx, ix, ny, iy)
                assert [(i, list(f.terms.items())) for i, f in got.coords.items()] == want
                if X is Y:
                    assert Y.product_terms(dx, ix, ny, iy) == terms
                checked += 1
    assert checked >= 3   # 1 * 1, 1 * e and e * 1 on the hypersurface


# -- the fast path checks the module structure it uses ------------------------


CORPUS = Path(__file__).resolve().parents[1] / "src" / "burchlab" / "corpus"


def test_fast_path_reads_products_of_y_only_with_the_left_factor_in_the_base(monkeypatch):
    # a whole verify-golod run, construction included: every product of the
    # fast path's Y that anything reads has its left subset in the base
    fulls, left, right = [], {}, {}   # left and right bitmasks read, per Taylor complex
    real_init, real_product = TaylorDgModule.__init__, TaylorComplex.product_terms

    def init(self, sub, full):
        fulls.append((full, len(sub.monomials)))
        real_init(self, sub, full)

    def product_terms(self, da, ia, db, ib):
        left.setdefault(self, set()).add(self._masks[da][ia])
        right.setdefault(self, set()).add(self._masks[db][ib])
        return real_product(self, da, ia, db, ib)

    monkeypatch.setattr(TaylorDgModule, "__init__", init)
    monkeypatch.setattr(TaylorComplex, "product_terms", product_terms)
    spec = load_job(CORPUS / "ex_m2_2vars.json")
    assert run_command(spec.command, spec)[1] == 0
    (full, prefix_len), = fulls
    base = (1 << prefix_len) - 1
    assert len(full.monomials) > prefix_len   # Y has generators beyond the base
    assert left[full] and all(mS & ~base == 0 for mS in left[full])
    assert any(mT & ~base for mT in right[full])   # the right factor ranges over all of Y


GOLOD_JOBS = sorted(path.name for path in CORPUS.glob("*.json")
                    if load_job(path).command == "verify-golod")


@pytest.mark.parametrize("name", GOLOD_JOBS)
def test_every_product_read_lies_within_the_checked_depth(monkeypatch, name):
    # a whole job, fast path, transfer, golod check and cycles included:
    # outside the unit laws, which are checked in full, every product of X
    # and every action on Y read lands at most in the degree through which
    # the fast path checked Leibniz, max(t_X, t_Y) for X and t_Y for Y
    built, reads, in_unit_check = [], {}, []
    real_fast_path, real_unit = pipeline.taylor_module_fast_path, DgModule.check_unit
    real_action, real_product = TaylorDgModule.action_terms, TaylorComplex.product_terms

    def fast_path(*args):
        out = real_fast_path(*args)
        built.append(out)
        return out

    def check_unit(self, *args):
        in_unit_check.append(self)
        try:
            return real_unit(self, *args)
        finally:
            in_unit_check.pop()

    def action_terms(self, dx, ix, ny, iy):
        if not in_unit_check:
            reads.setdefault(self, set()).add(dx + ny)
        return real_action(self, dx, ix, ny, iy)

    def product_terms(self, da, ia, db, ib):
        if not in_unit_check:
            reads.setdefault(self, set()).add(da + db)
        return real_product(self, da, ia, db, ib)

    monkeypatch.setattr(pipeline, "taylor_module_fast_path", fast_path)
    monkeypatch.setattr(DgModule, "check_unit", check_unit)
    monkeypatch.setattr(TaylorDgModule, "action_terms", action_terms)
    monkeypatch.setattr(TaylorComplex, "product_terms", product_terms)
    spec = load_job(CORPUS / name)
    run_command(spec.command, spec)
    (X, mod, ctr_x, ctr_y), = built
    t_x, t_y = ctr_x.small.top(), ctr_y.small.top()
    assert t_y <= len(spec.variables)   # the minimal Q-resolution of M
    assert reads[X] and max(reads[X]) <= max(t_x, t_y)
    assert reads[mod] and max(reads[mod]) <= t_y


def test_taylor_module_leibniz_pairs_are_exactly_the_pairs_meeting_in_at_most_one_index(m2_ideal):
    R = m2_ideal.ring
    X, mod, _, _ = taylor_module_fast_path(
        R, minimal_generators(m2_ideal.gens, R), [R.parse("x"), R.parse("y")])
    Y = mod.full
    for dx in range(X.complex.top() + 1):
        for S in X.subsets[dx]:   # X's bitmasks are Y's on the prefix
            assert X._masks[dx][X.position[dx][S]] == Y._masks[dx][Y.position[dx][S]]
        for ny in range(Y.complex.top() + 1 - dx):
            got = list(mod.leibniz_pairs(dx, ny))
            want = [(ix, iy) for ix, S in enumerate(X.subsets[dx])
                    for iy, U in enumerate(Y.subsets[ny]) if len(set(S) & set(U)) <= 1]
            assert got == want


def flip_one_product_of_y(monkeypatch, base_len, S, U):
    """Make the rule TaylorComplex.product_terms return -(e_S * e_U) on that
    one pair, on any Taylor complex with more than base_len generators.
    Returns the list that each flipped read appends to."""
    real = TaylorComplex.product_terms
    mS, mU = (sum(1 << k for k in V) for V in (S, U))
    hits = []

    def planted(self, da, ia, db, ib):
        out = real(self, da, ia, db, ib)
        hit = (self._masks[da][ia], self._masks[db][ib]) == (mS, mU)
        if hit and len(self.monomials) > base_len:
            hits.append((da, ia, db, ib))
            return tuple((i, m, P - c) for i, m, c in out)
        return out

    monkeypatch.setattr(TaylorComplex, "product_terms", planted)
    return hits


def test_fast_path_catches_a_planted_sign_on_a_disjoint_action_pair(monkeypatch, m2_ideal):
    # e_0 * e_3: index 3 is the extra generator x; the product lands in
    # degree 2, the top t_Y of the minimal resolution of k over k[x,y]
    R = m2_ideal.ring
    flip_one_product_of_y(monkeypatch, 3, (0,), (3,))
    with pytest.raises(InternalCheckError, match=r"module Leibniz fails on basis pair \(1,0\)"):
        taylor_module_fast_path(
            R, minimal_generators(m2_ideal.gens, R), [R.parse("x"), R.parse("y")])


def test_a_planted_sign_above_the_read_depth_is_seen_in_full_and_never_read(monkeypatch,
                                                                           m2_ideal):
    # e_0 * e_(1,3) lands in degree 3, above t_Y = 2: the fast path does
    # not check it, the full module check catches it, and a whole
    # verify-golod run never reads it and keeps its golden report
    R = m2_ideal.ring
    hits = flip_one_product_of_y(monkeypatch, 3, (0,), (1, 3))
    _, mod, _, ctr_y = taylor_module_fast_path(
        R, minimal_generators(m2_ideal.gens, R), [R.parse("x"), R.parse("y")])
    assert ctr_y.small.top() == 2 and not hits
    with pytest.raises(InternalCheckError, match="module Leibniz fails"):
        mod.check_leibniz()
    assert hits
    hits.clear()
    spec = load_job(CORPUS / "ex_m2_2vars.json")
    body, code = run_command(spec.command, spec)
    golden = json.loads((CORPUS / "golden" / "ex_m2_2vars.json").read_text(encoding="utf-8"))
    assert reports_equal(assemble(spec.command, spec.to_dict(), body, code), golden)
    assert not hits


def test_module_check_catches_a_planted_sign_in_a_pair_meeting_in_one_index(monkeypatch, m2_ideal):
    # S = {0,1}, U = {1,3} meet in 1: e_S * e_U = 0, and of the right-hand
    # terms only d(e_S) * e_U ~ e_0 * e_13 and e_S * d(e_U) ~ e_01 * e_3 are
    # nonzero; they must cancel.  Flip the sign of e_0 * e_13 only.
    R = m2_ideal.ring
    X, mod, _, _ = taylor_module_fast_path(
        R, minimal_generators(m2_ideal.gens, R), [R.parse("x"), R.parse("y")])
    ix, iy = X.position[2][(0, 1)], mod.full.position[2][(1, 3)]
    mod.leibniz_pairs = lambda dx, ny: [(ix, iy)] if (dx, ny) == (2, 2) else []
    mod.check_leibniz()   # the honest action passes on this pair
    flip_one_product_of_y(monkeypatch, 3, (0,), (1, 3))
    pair = rf"module Leibniz fails on basis pair \(2,{ix}\) \(2,{iy}\)"
    with pytest.raises(InternalCheckError, match=pair):
        mod.check_leibniz()
    del mod.leibniz_pairs   # the restricted pairs of the full check catch it as well
    with pytest.raises(InternalCheckError, match="module Leibniz fails"):
        mod.check_leibniz()


def test_semifree_resolution_over_koszul(hyper_ideal):
    X = TaylorComplex(hyper_ideal.ring, [hyper_ideal.ring.parse("x^2")])
    k = ModulePresentation.residue_field(hyper_ideal)
    Y = build_semifree_resolution(k, X, up_to=7)
    assert Y.complex.poincare_coeffs()[:7] == [1, 2, 2, 2, 2, 2, 2]
    Y.check_unit()
    Y.check_leibniz()   # on the pairs (x, y_0) too: psi(x) = x * y_0 is a chain map
    check_associative(Y, 5)
    for n in range(1, 6):
        assert homology_is_zero(Y.complex, n)


def test_semifree_trivial_module_is_the_algebra(m2_ideal):
    X = TaylorComplex(m2_ideal.ring, m2_ideal.gens)
    rm = ModulePresentation.cyclic(m2_ideal, [])
    Y = build_semifree_resolution(rm, X, up_to=4)
    assert Y.complex.poincare_coeffs() == X.complex.poincare_coeffs()


@pytest.mark.parametrize("case", ["closure", "semifree"])
def test_each_generator_carries_the_degree_of_its_differential(case, bione_ideal):
    # kill_homology hands adjoin the internal degree of the cycle it picked;
    # with a wrong one the differentials would not be homogeneous
    X = closure(bione_ideal, through=5)
    engine = X if case == "closure" else resolve_k(bione_ideal, X, up_to=4)
    check_homogeneous(engine.complex)
    if case == "closure":
        for v, g in enumerate(X.generators):
            assert X.complex.basis_degrees(g.degree)[X.position(g.degree, ((v, 1),))] \
                == g.internal
    assert all(g.internal > 0 for g in engine.generators if g.degree > 0)


def test_semifree_generators_count_betti(m2_ideal):
    # generators adjoined in degree n match beta_n^R(k) = 2^n
    X = TaylorComplex(m2_ideal.ring, m2_ideal.gens)
    k = ModulePresentation.residue_field(m2_ideal)
    Y = build_semifree_resolution(k, X, up_to=6)
    from collections import Counter
    counts = Counter(g.degree for g in Y.generators)
    assert [counts[n] for n in range(5)] == [1, 2, 4, 8, 16]
    Y.check_leibniz()   # psi(x) = x * y_0 is a chain map


def test_fast_path_catches_a_planted_coefficient_on_an_action_on_y0(monkeypatch, m2_ideal):
    # psi(e_0) = e_0 * y_0 with coefficient 2: d(psi e_0) = 2 a_0 but
    # psi(d e_0) = a_0, the Leibniz defect of the pair (e_0, y_0)
    R = m2_ideal.ring
    real = TaylorDgModule.action_terms

    def planted(self, dx, ix, ny, iy):
        out = real(self, dx, ix, ny, iy)
        if (dx, ix, ny, iy) == (1, 0, 0, 0):
            return tuple((i, m, 2 * c % P) for i, m, c in out)
        return out

    monkeypatch.setattr(TaylorDgModule, "action_terms", planted)
    with pytest.raises(InternalCheckError,
                       match=r"module Leibniz fails on basis pair \(1,0\) \(0,0\)"):
        taylor_module_fast_path(
            R, minimal_generators(m2_ideal.gens, R), [R.parse("x"), R.parse("y")])


# -- reuse across adjunction: append-only columns and the cycles of d_n ------


def rebuilt_in_one_refresh(Y):
    """A semifree module with Y's generators, all added before one refresh."""
    fresh = SemifreeDgModule(Y.algebra, degree_cap=Y.degree_cap)
    for g in Y.generators:
        fresh.add_generator(*g)
    return fresh


@pytest.mark.parametrize("case", ["m2_taylor", "m2_tate", "hyper_taylor"])
def test_append_only_columns_match_a_fresh_build(case, m2_ideal, hyper_ideal):
    ideal = hyper_ideal if case.startswith("hyper") else m2_ideal
    if case.endswith("tate"):
        X = closure(ideal, through=4)
    else:
        X = TaylorComplex(ideal.ring, ideal.gens)
    Y = resolve_k(ideal, X, up_to=5)
    built, fresh = Y.complex, rebuilt_in_one_refresh(Y).complex
    assert built.degrees == fresh.degrees
    for n in range(1, built.top() + 1):
        assert built.diff(n).columns == fresh.diff(n).columns
    assert len(Y.generators) > 5


def test_semifree_images_are_dropped_when_the_algebra_complex_changes(m2_ideal):
    X = closure(m2_ideal, through=4)
    Y = resolve_k(m2_ideal, X, up_to=3)
    kept = Y._images
    assert kept and Y._images_of is X.complex
    X.adjoin(4, 0, {})  # a new complex of X, with one more basis element in degree 4
    Y._stale = True     # as the next generator of Y would
    built, fresh = Y.complex, rebuilt_in_one_refresh(Y).complex
    assert Y._images is not kept and Y._images_of is X.complex
    assert built.degrees == fresh.degrees and built.rank(4) > 0
    for n in range(1, built.top() + 1):
        assert built.diff(n).columns == fresh.diff(n).columns


@pytest.mark.parametrize("case", ["m2", "bione"])
def test_kept_tate_images_match_a_fresh_build(case, m2_ideal, bione_ideal):
    # the closure rebuilds once per round and keeps each key's image; a fresh
    # algebra with the same variables computes every image at one refresh
    ideal = bione_ideal if case == "bione" else m2_ideal
    A = closure(ideal, through=5)
    fresh = TateAlgebra(A.ring, A.degree_cap)
    for g in A.generators:
        fresh.adjoin(*g)
    built, new = A.complex, fresh.complex
    assert built.degrees == new.degrees
    for n in range(1, built.top() + 1):
        assert built.diff(n).columns == new.diff(n).columns
    assert len(A.generators) > 2


def test_tate_images_are_computed_once_and_a_planted_one_is_seen(monkeypatch, m2_ideal):
    real = TateAlgebra._key_image
    calls = Counter()

    def planted(self, d, key):
        calls[key] += 1
        img = real(self, d, key)
        if key == ((0, 1), (1, 1)):     # d(e_0 e_1): negate one of its two terms
            k = next(iter(img))
            img[k] = -img[k]
        return img

    monkeypatch.setattr(TateAlgebra, "_key_image", planted)
    with pytest.raises(InternalCheckError, match="d_1 o d_2 != 0"):
        closure(m2_ideal, through=4)
    assert calls and set(calls.values()) == {1}


@pytest.mark.parametrize("engine", ["tate", "semifree"])
def test_an_image_key_missing_one_degree_down_is_an_internal_error(monkeypatch, m2_ideal,
                                                                   engine):
    # keyed_complex names the stray key and the degree it is missing from,
    # where a bare KeyError would reach the CLI as exit 4 "internal error (KeyError)"
    cls, stray = ((TateAlgebra, ((99, 1),)) if engine == "tate" else (SemifreeDgModule, (99, 0)))
    real = cls._key_image

    def planted(self, d, key):
        img = real(self, d, key)
        if d == 2:
            img = {**img, stray: m2_ideal.ring.one()}
        return img

    monkeypatch.setattr(cls, "_key_image", planted)
    with pytest.raises(InternalCheckError,
                       match=re.escape(f"boundary key {stray} of ") + ".* is missing at degree 1$"):
        if engine == "tate":
            closure(m2_ideal, through=3)
        else:
            resolve_k(m2_ideal, TaylorComplex(m2_ideal.ring, m2_ideal.gens), up_to=3)


def drop_last_generator_once(monkeypatch, module):
    """Make the first adjunction of two or more generators leave out its last one."""
    real = module.homology_generators
    dropped = []

    def patched(cx, d):
        picks, spans = real(cx, d)
        if not dropped and len(picks) >= 2:
            dropped.append(d)
            return picks[:-1], spans
        return picks, spans

    monkeypatch.setattr(module, "homology_generators", patched)
    return dropped


def test_semifree_check_catches_a_missing_generator(monkeypatch, m2_ideal):
    dropped = drop_last_generator_once(monkeypatch, tate)
    X = TaylorComplex(m2_ideal.ring, m2_ideal.gens)
    with pytest.raises(InternalCheckError, match="survived adjunction"):
        resolve_k(m2_ideal, X, up_to=4)
    assert dropped == [1]


def test_tate_check_catches_a_missing_variable(monkeypatch, m2_ideal):
    dropped = drop_last_generator_once(monkeypatch, tate)
    with pytest.raises(InternalCheckError, match="survived adjunction"):
        closure(m2_ideal, through=4)
    assert dropped == [1]


def test_cycles_are_not_reused_for_a_changed_differential(monkeypatch, m2_ideal):
    real = tate.check_adjunction
    calls = []

    def patched(before, after, d, spans, what="homology"):
        calls.append(d)
        # the check after the first adjunction: plant a change of d_1
        col = next(iter(after.diff(d).columns.values()))
        i = next(iter(col))
        col[i] = col[i].scale(2)
        return real(before, after, d, spans, what)

    monkeypatch.setattr(tate, "check_adjunction", patched)
    X = TaylorComplex(m2_ideal.ring, m2_ideal.gens)
    with pytest.raises(InternalCheckError, match="changed since its cycles were computed"):
        resolve_k(m2_ideal, X, up_to=3)
    assert calls == [1]


def test_each_round_picks_once_and_checks_once(monkeypatch, m2_ideal):
    picks, checks = [], []
    real_pick, real_check = tate.minimal_module_generators, tate.check_adjunction

    def pick(*args, **kwargs):
        picks.append(1)
        return real_pick(*args, **kwargs)

    def check(before, after, d, spans, what="homology"):
        checks.append(d)
        return real_check(before, after, d, spans, what)

    monkeypatch.setattr(tate, "minimal_module_generators", pick)
    monkeypatch.setattr(tate, "check_adjunction", check)
    resolve_k(m2_ideal, TaylorComplex(m2_ideal.ring, m2_ideal.gens), up_to=4)
    assert len(picks) == 3 and checks == [1, 2, 3]
    picks.clear()
    checks.clear()
    closure(m2_ideal, through=4)
    assert len(picks) == 3 and checks == [1, 2, 3]


def complex_snapshot(cx):
    """The degrees of cx and every column of every d_n, rows and terms, copied."""
    return ({n: list(ds) for n, ds in cx.degrees.items()},
            {n: (list(m.row_degrees), list(m.col_degrees),
                 [(j, [(i, dict(f.terms)) for i, f in col.items()])
                  for j, col in m.columns.items()])
             for n, m in cx.diffs.items()})


def test_the_engine_never_changes_an_assembled_complex(monkeypatch, m2_ideal):
    # check_adjunction compares the complex a round's picks read with the
    # one assembled after it, and keeps no copy of its own: that is sound
    # only if an assembled complex stays as it was
    assembled = {}
    real = tate.AdjunctionEngine._refresh

    def snapshotting(self):
        real(self)
        cx = self._complex
        if id(cx) not in assembled:
            assembled[id(cx)] = (cx, complex_snapshot(cx))

    monkeypatch.setattr(tate.AdjunctionEngine, "_refresh", snapshotting)
    X = closure(m2_ideal, through=4)
    built_x = len(assembled)
    Y = resolve_k(m2_ideal, X, up_to=4)
    assert built_x >= 4 and len(assembled) - built_x >= 4   # one per round and the first
    assert X.complex is assembled[id(X.complex)][0] and Y.complex is assembled[id(Y.complex)][0]
    for cx, snapshot in assembled.values():
        assert complex_snapshot(cx) == snapshot


# -- the adjunction check, on one round of k over k[x,y]/(x,y)^2 at n = 3 ----


def round_at_3(m2_ideal):
    """Y with H_3 not yet killed, the picked generators at 3 with the spans
    of the picks, and the generators' degrees."""
    X = TaylorComplex(m2_ideal.ring, m2_ideal.gens)
    cx = resolve_k(m2_ideal, X, up_to=3).complex
    gens, spans = homology_generators(cx, 3)
    assert len(gens) == 16   # beta_4 of k over R, see test_semifree_generators_count_betti
    return cx, spans, gens, [g.degree(cx.basis_degrees(3)) for g in gens]


def adjoined(cx, n, columns, col_degrees):
    """A copy of cx with the columns appended to d_(n+1), as one round of
    adjunction appends its generators."""
    old = cx.diff(n + 1)
    diffs = {t: copy(m) for t, m in cx.diffs.items()}
    diffs[n + 1] = PolyMatrix.from_columns(
        cx.ring, old.row_degrees, [old.column(j) for j in range(old.cols)] + columns,
        old.col_degrees + col_degrees)
    degrees = dict(cx.degrees)
    degrees[n + 1] = cx.basis_degrees(n + 1) + col_degrees
    return GradedFreeComplex(cx.ring, degrees, diffs)


def test_adjunction_check_passes_on_the_true_round(m2_ideal):
    cx, spans, gens, degs = round_at_3(m2_ideal)
    new = adjoined(cx, 3, gens, degs)
    check_adjunction(cx, new, 3, spans)
    # the full recomputations agree
    assert homology_generators(new, 3)[0] == [] and homology_is_zero(new, 3)


def test_adjunction_check_refuses_a_changed_old_boundary(m2_ideal):
    cx, spans, gens, degs = round_at_3(m2_ideal)
    new = adjoined(cx, 3, gens, degs)
    col = next(iter(new.diff(4).columns.values()))
    i = next(iter(col))
    col[i] = col[i].scale(2)   # same span, so only the exact comparison sees it
    with pytest.raises(InternalCheckError, match="d_4 changed in its first"):
        check_adjunction(cx, new, 3, spans)


@pytest.mark.parametrize("plant", ["zero", "old boundary"])
def test_adjunction_check_reads_the_new_columns_from_the_complex(m2_ideal, plant):
    cx, spans, gens, degs = round_at_3(m2_ideal)
    old = cx.diff(4)
    columns, degs = list(gens), list(degs)
    if plant == "zero":
        columns[-1] = FreeModuleElement(cx.ring, {})
    else:
        j = min(old.columns)
        columns[-1], degs[-1] = old.column(j), old.col_degrees[j]
    with pytest.raises(InternalCheckError, match="survived adjunction"):
        check_adjunction(cx, adjoined(cx, 3, columns, degs), 3, spans)


def test_adjunction_check_compares_d_n_exactly(m2_ideal):
    cx, spans, gens, degs = round_at_3(m2_ideal)
    new = adjoined(cx, 3, gens, degs)
    col = next(iter(new.diff(3).columns.values()))
    i = next(iter(col))
    col[i] = col[i].scale(2)   # same Z_3, so only the exact comparison sees it
    with pytest.raises(InternalCheckError, match="d_3 changed since its cycles were computed"):
        check_adjunction(cx, new, 3, spans)


@pytest.mark.parametrize("n", [3, 2])
def test_adjunction_check_compares_the_grading(m2_ideal, n):
    cx, spans, gens, degs = round_at_3(m2_ideal)
    new = adjoined(cx, 3, gens, degs)
    degrees = dict(new.degrees)
    degrees[n] = [degrees[n][0] + 1] + degrees[n][1:]   # same d_3, one element regraded
    regraded = GradedFreeComplex(cx.ring, degrees, new.diffs)
    with pytest.raises(InternalCheckError, match="d_3 changed since its cycles were computed"):
        check_adjunction(cx, regraded, 3, spans)


def test_generator_picks_take_no_normal_form(monkeypatch, m2_ideal):
    # over Q: the cycles and boundary columns of a semifree complex
    X = TaylorComplex(m2_ideal.ring, m2_ideal.gens)
    cx = resolve_k(m2_ideal, X, up_to=3).complex
    d3, d4 = cx.diff(3), cx.diff(4)
    cycles = syzygies_of([d3.column(j) for j in range(d3.cols)], d3.rows, cx.ring)
    boundaries = [(d4.column(j), deg) for j, deg in enumerate(cx.basis_degrees(4))]
    # over R: the kernel of d_1 of k's resolution, in normal form as it is made
    d1 = resolve_over_R(ModulePresentation.residue_field(m2_ideal), 1).diff(1)
    kernel, _ = kernel_gens_over_R(d1, m2_ideal)
    normal_forms = []
    real = Ideal.normal_form

    def counted(self, f):
        normal_forms.append(1)
        return real(self, f)

    monkeypatch.setattr(Ideal, "normal_form", counted)
    spans = {}
    over_q = minimal_module_generators(cycles, cx.basis_degrees(3), Ideal(cx.ring, []),
                                       extra_span=boundaries, spans=spans)
    over_r = minimal_module_generators(kernel, d1.col_degrees, m2_ideal)
    assert not normal_forms
    assert len(over_q) == 16 and spans
    assert over_r == kernel and len(kernel) == 4   # ker (x y) = m R^2, as m^2 = 0
