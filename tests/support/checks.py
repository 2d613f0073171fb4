"""Checks the tests run on what the package builds; no command runs them.

* stasheff_check and check_minimality: the Stasheff identities and the
  minimality of the transferred A-infinity structures of ainfty;
* verify_contraction: every identity of a contraction minimalize returns;
* check_associative and check_commutative: the dg laws beside the unit and
  Leibniz checks that taylor.DgModule runs itself;
* homology_is_zero: exactness of a complex, over Q by a Groebner argument;
* check_homogeneous: every differential entry has the degree its labels ask;
* reduce_element: normal forms against a module Groebner basis, the
  reference for RTable;
* identity, entry, add and copy: the PolyMatrix helpers of the checks.
"""

from __future__ import annotations

from burchlab.complexes import GradedFreeComplex, Strands
from burchlab.contraction import Contraction
from burchlab.errors import InternalCheckError
from burchlab.groebner import _lead_index, _normal_form, module_groebner, syzygies_of
from burchlab.matrices import FreeModuleElement, PolyMatrix, add_into
from burchlab.ring import Polynomial, mono_deg
from burchlab.taylor import bilinear


def identity(ring, degrees) -> PolyMatrix:
    m = PolyMatrix(ring, degrees, degrees)
    one = ring.one()
    for i in range(len(m.row_degrees)):
        m.columns[i] = {i: one}
    return m


def entry(m: PolyMatrix, i, j) -> Polynomial:
    col = m.columns.get(j)
    if col is None:
        return m.ring.zero()
    return col.get(i, m.ring.zero())


def copy(m: PolyMatrix) -> PolyMatrix:
    out = PolyMatrix(m.ring, m.row_degrees, m.col_degrees)
    for j, col in m.columns.items():
        out.columns[j] = dict(col)
    return out


def add(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    out = copy(a)
    for j, col in b.columns.items():
        mine = out.columns.setdefault(j, {})
        for i, f in col.items():
            add_into(mine, i, f)
        if not mine:
            del out.columns[j]
    return out


def check_homogeneous(cx: GradedFreeComplex):
    for n in sorted(cx.diffs):
        m = cx.diff(n)
        for j, col in m.columns.items():
            for i, f in col.items():
                want = m.col_degrees[j] - m.row_degrees[i]
                for mono in f.terms:
                    if mono_deg(mono) != want:
                        raise ValueError(f"entry ({i},{j}) has a term of degree "
                                         f"{mono_deg(mono)}, expected {want}")


def homology_is_zero(cx: GradedFreeComplex, n: int) -> bool:
    """Exactness at position n (1 <= n): over Q by a Groebner argument
    (ker d_n inside im d_(n+1) as submodules), over Artinian R on F_p
    strands."""
    if cx.quotient is None:
        cols = [cx.diff(n).column(j) for j in range(cx.rank(n))]
        syz = syzygies_of(cols, cx.rank(n - 1), cx.ring)
        if not syz:
            return True
        up = [cx.diff(n + 1).column(j) for j in range(cx.rank(n + 1))]
        index = _lead_index(module_groebner([v for v in up if v.coords], cx.ring))
        return all(not _normal_form(w, index).coords for w in syz)
    return not Strands(cx).homology(n)


def reduce_element(v: FreeModuleElement, basis) -> FreeModuleElement:
    """Normal form of v against basis (list of (lead, elt) with monic elts)."""
    return _normal_form(v, _lead_index([g for _, g in basis]))


def verify_contraction(ctr: Contraction, through: int | None = None):
    """Check every contraction identity mechanically."""
    big, small = ctr.big, ctr.small
    table = big.rtable()
    top = big.top() if through is None else through
    ring = big.ring
    # compose(..., table) multiplies in R and add keeps normal forms, so
    # the two sides of each identity compare entry by entry
    for n in range(top + 1):
        i_n, p_n, h_n = ctr.incl_at(n), ctr.proj_at(n), ctr.htpy_at(n)
        # p i = id
        if p_n.compose(i_n, table) != identity(ring, small.basis_degrees(n)):
            raise InternalCheckError(f"p i != id at degree {n}")
        # id - i p = d h + h d, checked as i p + d h + h d = id
        ip = i_n.compose(p_n, table)
        dh = big.diff(n + 1).compose(h_n, table)
        hd = ctr.htpy_at(n - 1).compose(big.diff(n), table)
        if add(add(ip, dh), hd) != identity(ring, big.basis_degrees(n)):
            raise InternalCheckError(f"id - ip != dh + hd at degree {n}")
        # side conditions
        if not h_n.compose(i_n, table).is_zero():
            raise InternalCheckError(f"h i != 0 at degree {n}")
        if not ctr.proj_at(n + 1).compose(h_n, table).is_zero():
            raise InternalCheckError(f"p h != 0 at degree {n}")
        if not ctr.htpy_at(n + 1).compose(h_n, table).is_zero():
            raise InternalCheckError(f"h h != 0 at degree {n}")
        # chain maps
        if n >= 1:
            if (big.diff(n).compose(i_n, table)
                    != ctr.incl_at(n - 1).compose(small.diff(n), table)):
                raise InternalCheckError(f"i is not a chain map at degree {n}")
            if (small.diff(n).compose(p_n, table)
                    != ctr.proj_at(n - 1).compose(big.diff(n), table)):
                raise InternalCheckError(f"p is not a chain map at degree {n}")
    if any(n <= top for n, _, _ in small.unit_entries()):
        raise InternalCheckError("small complex is not minimal")
    return True


def check_associative(Y, degree_cap: int):
    """(a*b)*c = a*(b*c) in a dg module Y (an algebra acts on itself) for
    total degree within the cap and Y's top."""
    X = Y.algebra
    times = Y.action_terms
    top = Y.complex.top()
    for da in range(degree_cap + 1):
        for db in range(degree_cap + 1 - da):
            for dc in range(degree_cap + 1 - da - db):
                if da + db + dc > top:
                    continue  # both sides land in zero modules
                for ia in range(X.complex.rank(da)):
                    va = FreeModuleElement.basis(Y.ring, ia)
                    for ib in range(X.complex.rank(db)):
                        ab = X.action_basis(da, ia, db, ib)
                        for ic in range(Y.complex.rank(dc)):
                            vc = FreeModuleElement.basis(Y.ring, ic)
                            left = bilinear(times, da + db, ab, dc, vc)
                            bc = Y.action_basis(db, ib, dc, ic)
                            if left != bilinear(times, da, va, db + dc, bc):
                                raise InternalCheckError(
                                    f"{Y.label}associativity fails on "
                                    f"({da},{ia}) ({db},{ib}) ({dc},{ic})")


def check_commutative(A, through: int | None = None):
    """Graded commutativity of a dg algebra A through a degree."""
    top = A.complex.top() if through is None else through
    for da in range(top + 1):
        for db in range(da, top + 1 - da):
            for ia in range(A.complex.rank(da)):
                for ib in range(A.complex.rank(db)):
                    ab = A.action_basis(da, ia, db, ib)
                    ba = A.action_basis(db, ib, da, ia)
                    if (da * db) % 2 == 1:
                        ba = -ba
                    if ab != ba:
                        raise InternalCheckError(
                            f"graded commutativity fails on ({da},{ia}) ({db},{ib})")


def _slot_tuples(structure, n: int, degree_cap: int, minimality: bool = False):
    """Slot tuples of length n in lexicographic order with total degree
    within the cap.  For the minimality check the algebra slots skip
    degree 0 and a module's y slot is neither capped nor restricted."""

    def refs_of(cx, skip_zero):
        return [(d, i) for d in range(1 if skip_zero else 0, cx.top() + 1)
                for i in range(cx.rank(d))]

    slots = [refs_of(structure.alg.complex, minimality)] * n
    uncapped = None
    if structure.has_y_slot:
        slots[-1] = refs_of(structure.complex, False)
        if minimality:
            uncapped = n - 1
    out = []

    def rec(prefix, used):
        k = len(prefix)
        if k == n:
            out.append(tuple(prefix))
            return
        for ref in slots[k]:
            if k == uncapped or used + ref[0] <= degree_cap:
                prefix.append(ref)
                rec(prefix, used + ref[0])
                prefix.pop()

    rec([], 0)
    return out


def _stasheff_identity(structure, n: int, refs) -> FreeModuleElement:
    """Value of the n-th Stasheff identity sum on one slot tuple: should be 0.

    sum over r+s+t = n of (-1)^(r+st) m_(r+1+t)(1^r (x) m_s (x) 1^t), with
    the Koszul application sign (-1)^(|m_s| * deg(first r args)).  In a
    module the outer operation is mu; the inner one is mu when its block
    holds the y slot (t = 0) and the algebra's m otherwise.  The outer
    operation is applied to basis refs, the inner result's coordinate k in
    place of the block, times its coefficient c: polynomial coefficients
    are central and every other slot is a basis ref with coefficient 1.
    """
    ring = structure.ring
    total = {}
    for s in range(1, n + 1):
        for r in range(0, n - s + 1):
            t = n - s - r
            block = refs[r:r + s]
            inner = (structure if t == 0 else structure.alg)._op(s, block)
            if not inner.coords:
                continue
            inner_deg = sum(d for d, _ in block) + s - 2
            sign = -1 if (r + s * t) % 2 else 1
            if (s * sum(d for d, _ in refs[:r])) % 2:
                sign = -sign
            for k, c in (inner if sign > 0 else -inner).coords.items():
                outer = refs[:r] + ((inner_deg, k),) + refs[r + s:]
                for i, f in structure._op(r + 1 + t, outer).coords.items():
                    add_into(total, i, f * c)
    return FreeModuleElement(ring, total)


def stasheff_check(structure, n: int, degree_cap: int):
    """Evaluate the n-th identity on every slot tuple within the degree cap."""
    for refs in _slot_tuples(structure, n, degree_cap):
        val = _stasheff_identity(structure, n, refs)
        if val.coords:
            raise InternalCheckError(
                f"Stasheff identity {n} for {'mu' if structure.has_y_slot else 'm'} "
                f"fails on {refs}: {val}")
    return True


def check_minimality(structure, degree_cap: int):
    """m_n of positive-degree algebra inputs within the degree cap lands in
    n * X for minimal X."""
    for n in range(2, structure.arity_cap + 1):
        for refs in _slot_tuples(structure, n, degree_cap, minimality=True):
            for f in structure._op(n, refs).coords.values():
                if f.constant_coeff():
                    name = "mu" if structure.has_y_slot else "m"
                    raise InternalCheckError(f"{name}_{n}{refs} has a unit coordinate")
    return True
