from burchlab.groebner import Ideal, RTable, Strand
from burchlab.matrices import FreeModuleElement
from burchlab.resolve import ModulePresentation, kernel_gens_over_R, resolve_over_R
from support.checks import homology_is_zero
from support.oracle import kernel_gens_over_R_gb, resolve_over_Q

P = 32003


def test_betti_doubling_over_m2(m2_ideal):
    # m^2 = 0 forces syz(k) = m = k^2, so beta_i = 2^i
    k = ModulePresentation.residue_field(m2_ideal)
    res = resolve_over_R(k, 8)
    assert res.poincare_coeffs() == [2 ** i for i in range(9)]
    res.check_dd_zero()
    for n in range(1, 8):
        assert homology_is_zero(res, n)


def test_strand_and_gb_kernels_agree(m2_ideal):
    k = ModulePresentation.residue_field(m2_ideal)
    res = resolve_over_R(k, 3)
    for n in (1, 2):
        a, _ = kernel_gens_over_R(res.diff(n), m2_ideal)
        b = kernel_gens_over_R_gb(res.diff(n), m2_ideal)
        assert len(a) == len(b)


def test_strand_and_gb_kernels_agree_bione(bione_ideal):
    M = ModulePresentation.cyclic(bione_ideal, [bione_ideal.ring.parse("x^2"),
                                                bione_ideal.ring.parse("y")])
    res = resolve_over_R(M, 3)
    for n in (1, 2):
        a, _ = kernel_gens_over_R(res.diff(n), bione_ideal)
        b = kernel_gens_over_R_gb(res.diff(n), bione_ideal)
        assert len(a) == len(b)


def test_free_module_resolves_to_itself(m2_ideal):
    free = ModulePresentation(m2_ideal.ring, m2_ideal, [0, 1], [])
    assert resolve_over_R(free, 5).poincare_coeffs() == [2]


def test_koszul_resolution_of_k_over_Q(R2):
    zero = Ideal(R2, [])
    res = resolve_over_Q(ModulePresentation.residue_field(zero))
    assert res.poincare_coeffs() == [1, 2, 1]
    for n in (1, 2):
        assert homology_is_zero(res, n)


def test_q_resolution_of_m2_quotient(R2, m2_ideal):
    zero = Ideal(R2, [])
    res = resolve_over_Q(ModulePresentation.cyclic(zero, m2_ideal.gens))
    assert res.poincare_coeffs() == [1, 3, 2]


def test_module_dims(bione_ideal):
    R = bione_ideal.ring
    M = ModulePresentation.cyclic(bione_ideal, [R.parse("x^2"), R.parse("y")])
    # R/(x^2, y) = k[x]/(x^2) has Hilbert function (1, 1)
    assert M.dims(4) == [1, 1, 0, 0, 0]


def test_presented_module_resolution(m2_ideal):
    R = m2_ideal.ring
    rels = [FreeModuleElement(R, {0: R.parse("x"), 1: R.parse("y")})]
    M = ModulePresentation(R, m2_ideal, [0, 0], rels)
    res = resolve_over_R(M, 5)
    res.check_dd_zero()
    for n in range(1, 5):
        assert homology_is_zero(res, n)
    assert res.is_minimal()


def test_empty_target_strands_are_not_vectorized(monkeypatch, m2_ideal, bione_ideal):
    # RTable.matrix_strand returns zero columns for an empty target strand;
    # their kernel is the unit vectors in order, so the picks, the Betti
    # numbers and the k-ranks are those of a full vectorization
    R = m2_ideal.ring
    two = ModulePresentation(R, m2_ideal, [0, 0],
                             [FreeModuleElement(R, {0: R.parse("x"), 1: R.parse("y")})])
    modules = [ModulePresentation.residue_field(m2_ideal), two,
               ModulePresentation.cyclic(bione_ideal, [R.parse("x^2"), R.parse("y")])]

    def fingerprint(res):
        return (res.poincare_coeffs(), res.kranks,
                [res.diff(n).columns for n in range(1, res.top() + 1)])

    empty = []
    real_vector = Strand.vector

    def watched(self, coords, mono=None):
        if not self:
            empty.append(self.d)
        return real_vector(self, coords, mono)

    def vectorize_all(table, matrix, d, src=None, tgt=None):
        src = src or Strand(table, matrix.col_degrees, d)
        tgt = tgt or Strand(table, matrix.row_degrees, d)
        return src, [tgt.vector(matrix.columns.get(i, {}), m) for i, m in src]

    monkeypatch.setattr(Strand, "vector", watched)
    got = [fingerprint(resolve_over_R(M, 5)) for M in modules]
    assert empty == []
    monkeypatch.setattr(RTable, "matrix_strand", vectorize_all)
    want = [fingerprint(resolve_over_R(M, 5)) for M in modules]
    assert empty   # the strands above the top of F's summands are empty
    assert got == want
