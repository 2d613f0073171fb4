"""Reference implementations the production routes are checked against.

The package never imports this module; the tests do.

* krank_strand(): k-rank of coker(relations) by strand kernels: the socle
  in each degree as the kernel of multiplication by every variable modulo
  the relations one degree up, the pipelines' route before
  krank.syzygy_krank;
* syzygy_presentation(): syz_i of a resolution as coker(d_(i+1)), the
  presentation krank_strand and the two routes below read;
* krank_gb(): k-rank through the socle as a module colon over Q (one
  Groebner syzygy computation per variable, then intersections);
* krank_brute_force(): fully Groebner-free; enumerates the module as a
  k-space from raw generator multiples, builds the variable action
  matrices, and reads off socle-mod-radical;
* kernel_gens_over_R_gb(): kernels over R by lifting to Q and appending
  the I-columns;
* resolve_over_Q(): minimal Q-free resolution of a module presented over R.

Each route from krank_gb on sees the R-module coker(relations) as the
Q-module coker(relations + I times the basis), built by _with_ideal_columns.
"""

from __future__ import annotations

from burchlab.complexes import GradedFreeComplex
from burchlab.errors import InternalCheckError, ResourceCapError
from burchlab.groebner import Ideal, Strand, syzygies_of
from burchlab.linalg import SparseEchelon, kernel_basis, vec_axpy
from burchlab.matrices import FreeModuleElement, PolyMatrix
from burchlab.resolve import ModulePresentation, minimal_module_generators
from burchlab.ring import mono_deg, mono_mul, monomials_of_degree


def full_reduce(ech: SparseEchelon, res: dict) -> dict:
    """res reduced against every pivot of ech it holds, not just the
    leading one, so equal classes modulo the span reduce equally."""
    while True:
        hit = next((m for m in res if m in ech.pivots), None)
        if hit is None:
            return res
        vec_axpy(res, res[hit], ech.pivots[hit], ech.p)


def _with_ideal_columns(columns, rank: int, quotient: Ideal):
    """columns followed by f*e_i for every basis index i < rank and f in quotient.gens."""
    ring = quotient.ring
    return list(columns) + [FreeModuleElement(ring, {i: f})
                            for i in range(rank) for f in quotient.gens]


def total_dim_bound(pres: ModulePresentation) -> int:
    """dim_k M summed over every degree where M can be nonzero; R is Artinian."""
    return sum(pres.dims(max(pres.gen_degrees) + pres.quotient.table().top))


# ---------------------------------------------------------------------------
# k-rank by strand kernels on a presentation
# ---------------------------------------------------------------------------


def krank_strand(pres: ModulePresentation) -> int:
    """Socle strand by strand; needs an Artinian quotient."""
    ring = pres.ring
    table = pres.quotient.table()
    degrees = pres.gen_degrees
    rels = [(v, v.degree(degrees)) for v in pres.relations]
    xs = ring.maximal_ideal_gens()
    total = 0
    # the degree-(d+1) strand and relation echelon of one step are the
    # degree-d ones of the next
    carried = None
    for d in range(min(degrees, default=0), max(degrees, default=0) + table.top + 1):
        src, ech = carried if carried is not None else (Strand(table, degrees, d), None)
        carried = None
        if not src:
            continue
        tgt = Strand(table, degrees, d + 1)
        ech_up = tgt.span(rels)
        carried = (tgt, ech_up)
        # columns of u -> (x_j * u mod N) stacked over j
        cols = []
        block = len(tgt)
        for i, m in src:
            col = {}
            for j, x in enumerate(xs):
                # fully reduced, so equal classes mod N get equal columns
                res = full_reduce(ech_up, tgt.vector({i: x}, m))
                for t, c in res.items():
                    col[j * block + t] = c
            cols.append(col)
        _, kern = kernel_basis(cols, ring.p)
        if not kern:
            continue
        # quotient by mM: relation span at degree d plus positive-degree coords
        if ech is None:
            ech = src.span(rels)
        for t, (i, m) in enumerate(src):
            if mono_deg(m) > 0:
                ech.insert({t: 1})
        for kv in kern:
            piv, _ = ech.insert(dict(kv))
            if piv is not None:
                total += 1
    return total


def syzygy_presentation(res, i: int, quotient: Ideal) -> ModulePresentation:
    """syz_i as coker(d_{i+1}: F_{i+1} -> F_i); needs the resolution to i+1."""
    ring = res.ring
    gen_degrees = res.basis_degrees(i)
    mat = res.diff(i + 1)
    rels = [mat.column(j) for j in range(mat.cols)]
    return ModulePresentation(ring, quotient, list(gen_degrees), rels)


# ---------------------------------------------------------------------------
# k-rank through the module colon over Q
# ---------------------------------------------------------------------------


def _colon_by_element(columns, ambient_rank, f, ring):
    """Generators of {u in Q^a : f*u in span(columns)}."""
    aug = [FreeModuleElement(ring, {i: f}) for i in range(ambient_rank)] + columns
    out = []
    for w in syzygies_of(aug, ambient_rank, ring):
        v = FreeModuleElement(ring, {i: g for i, g in w.coords.items() if i < ambient_rank})
        if v.coords:
            out.append(v)
    return out


def _intersect_modules(a_cols, b_cols, ambient_rank, ring):
    aug = list(a_cols) + [(-v) for v in b_cols]
    out = []
    for w in syzygies_of(aug, ambient_rank, ring):
        elt = FreeModuleElement(ring, {})
        for i, g in w.coords.items():
            if i < len(a_cols):
                elt = elt + a_cols[i].mul_poly(g)
        if elt.coords:
            out.append(elt)
    return out


def _class_in_M_mod_mM(v: FreeModuleElement):
    """Image of a homogeneous v in F/(nF) = k^a: the constant coordinate parts."""
    out = {}
    for i, f in v.coords.items():
        c = f.constant_coeff()
        if c:
            out[i] = c
    return out


def krank_gb(pres: ModulePresentation) -> int:
    """Socle route via module colon over Q (one colon per variable, then meet)."""
    ring = pres.ring
    a = pres.ambient_rank
    N = _with_ideal_columns(pres.relations, a, pres.quotient)
    soc = None
    for i in range(ring.nvars):
        piece = _colon_by_element(N, a, ring.var(i), ring)
        soc = piece if soc is None else _intersect_modules(soc, piece, a, ring)
    ech = SparseEchelon(ring.p)
    for v in N:
        vec = _class_in_M_mod_mM(v)
        if vec:
            ech.insert(vec)
    count = 0
    for v in soc or []:
        vec = _class_in_M_mod_mM(v)
        piv, _ = ech.insert(vec) if vec else (None, None)
        if piv is not None:
            count += 1
    return count


# ---------------------------------------------------------------------------
# brute-force k-rank (no Groebner anywhere)
# ---------------------------------------------------------------------------


def krank_brute_force(pres: ModulePresentation, dim_cap: int = 400) -> int:
    """Enumerate M as a k-space with variable action matrices, then read
    socle-mod-radical off the raw matrices.

    Spans are built from monomial multiples of the raw relation and ideal
    generators; no normal forms or Groebner bases are used anywhere.
    """
    ring = pres.ring
    p = ring.p
    raw_cols = _with_ideal_columns(pres.relations, pres.ambient_rank, pres.quotient)

    def strand(d):
        idx = [(i, m) for i, bdeg in enumerate(pres.gen_degrees)
               for m in monomials_of_degree(ring.nvars, d - bdeg)]
        return idx, {key: t for t, key in enumerate(idx)}

    def span_echelon(d, pos):
        ech = SparseEchelon(p)
        for v in raw_cols:
            vdeg = v.degree(pres.gen_degrees)
            if vdeg > d:
                continue
            for m in monomials_of_degree(ring.nvars, d - vdeg):
                vec = {}
                for i, f in v.coords.items():
                    for mm, c in f.terms.items():
                        t = pos[(i, mono_mul(mm, m))]
                        vec[t] = (vec.get(t, 0) + c) % p
                ech.insert({k: c for k, c in vec.items() if c})
        return ech

    # per-degree quotient bases: non-pivot coordinates of the span echelon
    degrees = []
    bases = []       # list of (idx, pos, echelon, free coordinate list)
    total_dim = 0
    d = min(pres.gen_degrees, default=0)
    max_gen = max(pres.gen_degrees, default=0)
    while True:
        idx, pos = strand(d)
        ech = span_echelon(d, pos)
        free = [t for t in range(len(idx)) if t not in ech.pivots]
        dim = len(free)
        total_dim += dim
        if total_dim > dim_cap:
            raise ResourceCapError(f"brute-force dimension cap {dim_cap} exceeded")
        degrees.append(d)
        bases.append((idx, pos, ech, free))
        if dim == 0 and d >= max_gen:
            break
        if d > max_gen + 60:
            raise ResourceCapError("no Artinian truncation found within degree 60")
        d += 1

    # action of each variable: M_d -> M_{d+1} in quotient coordinates
    def reduce_to_classes(vec, ech, free_pos):
        res = full_reduce(ech, dict(vec))
        return {free_pos[t]: c for t, c in res.items()}

    actions = []  # actions[j][di] : dict col -> dict row -> c
    for j in range(ring.nvars):
        per_degree = []
        for di in range(len(degrees) - 1):
            idx, pos, ech, free = bases[di]
            _, pos2, ech2, free2 = bases[di + 1]
            free2_pos = {t: a for a, t in enumerate(free2)}
            mat = {}
            for a, t in enumerate(free):
                i, m = idx[t]
                target = {pos2[(i, mono_mul(m, _unit_exp(ring, j)))]: 1}
                mat[a] = reduce_to_classes(target, ech2, free2_pos)
            per_degree.append(mat)
        actions.append(per_degree)

    # socle and radical, degree by degree
    total = 0
    for di in range(len(degrees)):
        idx, pos, ech, free = bases[di]
        dim = len(free)
        if dim == 0:
            continue
        # radical at this degree: images of all actions from degree below
        rad = SparseEchelon(p)
        if di >= 1:
            prev_dim = len(bases[di - 1][3])
            for j in range(ring.nvars):
                mat = actions[j][di - 1]
                for a in range(prev_dim):
                    col = mat.get(a, {})
                    if col:
                        rad.insert(dict(col))
        # socle: kernel of stacked actions out of this degree
        if di < len(degrees) - 1:
            out_dim = len(bases[di + 1][3])
            cols = []
            for a in range(dim):
                col = {}
                for j in range(ring.nvars):
                    for r, c in actions[j][di].get(a, {}).items():
                        col[j * out_dim + r] = c
                cols.append(col)
            _, kern = kernel_basis(cols, p)
        else:
            kern = [{a: 1} for a in range(dim)]
        for kv in kern:
            piv, _ = rad.insert(dict(kv))
            if piv is not None:
                total += 1
    return total


def _unit_exp(ring, j):
    e = [0] * ring.nvars
    e[j] = 1
    return tuple(e)


# ---------------------------------------------------------------------------
# kernels and resolutions through Q
# ---------------------------------------------------------------------------


def kernel_gens_over_R_gb(matrix: PolyMatrix, quotient: Ideal):
    """Kernel generators over R by lifting to Q and appending I-columns."""
    ring = matrix.ring
    cols = [matrix.column(j) for j in range(matrix.cols)]
    syz = syzygies_of(_with_ideal_columns(cols, matrix.rows, quotient), matrix.rows, ring)
    red = quotient.normal_form
    out = []
    for w in syz:
        v = FreeModuleElement(ring, {j: f for j, f in w.coords.items() if j < matrix.cols})
        v = v.map_coords(red)
        if v.coords:
            out.append(v)
    return minimal_module_generators(out, matrix.col_degrees, quotient)


def resolve_over_Q(pres: ModulePresentation, up_to: int | None = None) -> GradedFreeComplex:
    """Minimal Q-free resolution of the module presented over R, viewed over Q.

    The Q-relations are the R-relations plus I times the ambient basis.
    """
    ring = pres.ring
    cols = _with_ideal_columns(pres.relations, pres.ambient_rank, pres.quotient)
    cap = ring.nvars if up_to is None else up_to
    zero_ideal = Ideal(ring, [])
    current = minimal_module_generators(cols, pres.gen_degrees, zero_ideal)
    degrees = {0: list(pres.gen_degrees)}
    diffs = {}
    prev_degrees = pres.gen_degrees
    n = 1
    while current and n <= cap:
        col_degs = [v.degree(prev_degrees) for v in current]
        mat = PolyMatrix.from_columns(ring, prev_degrees, current, col_degs)
        degrees[n] = col_degs
        diffs[n] = mat
        syz = syzygies_of(current, len(prev_degrees), ring)
        current = minimal_module_generators(syz, col_degs, zero_ideal)
        prev_degrees = col_degs
        n += 1
    if current:
        raise InternalCheckError("Q-resolution did not terminate within the variable count")
    cx = GradedFreeComplex(ring, degrees, diffs, quotient=None)
    if not cx.is_minimal():
        raise InternalCheckError("Q-resolution is not minimal")
    return cx
