"""Sparse Gaussian elimination over F_p.

Vectors are dicts {index: nonzero residue}.  The pivot of a vector is its
minimal index; pivot vectors are kept monic.  An optional representation
track records each pivot as a combination of the originally inserted
vectors, which yields kernels, lifts and membership certificates.

Insertion order.  The rank of a family does not depend on the order its
vectors go in, but the fill-in does: a long vector inserted early becomes a
pivot row that every later vector with that leading index must absorb.
rank_of, the one rank-only entry point, therefore inserts the shortest
columns first (a stable sort, in the spirit of Markowitz pivot choice).
Only consumers of a rank or a dimension may reorder.  kernel_basis, span
selections and every consumer of pivot or kernel vectors insert in index
order, because their greedy choices of kernel vectors and spanning columns
reach the reports.
"""

from __future__ import annotations


def vec_axpy(res: dict, c: int, src: dict, p: int):
    """res -= c * src  (in place, mod p)."""
    for k, v in src.items():
        w = (res.get(k, 0) - c * v) % p
        if w:
            res[k] = w
        else:
            res.pop(k, None)


class SparseEchelon:
    """Incremental echelon form of a family of sparse F_p vectors."""

    __slots__ = ("p", "pivots", "reps", "track")

    def __init__(self, p: int, track_reps: bool = False):
        self.p = p
        self.pivots = {}  # pivot index -> monic vector
        self.reps = {} if track_reps else None  # pivot index -> combination of inserted vecs
        self.track = track_reps

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict, rep: dict | None = None):
        """Reduce vec against the current pivots; returns (residual, rep_residual).

        rep_residual satisfies: original vec = residual + sum(rep_used * pivots),
        expressed in inserted-vector coordinates when tracking is on.
        """
        p = self.p
        res = dict(vec)
        rrep = dict(rep) if rep is not None else ({} if self.track else None)
        while res:
            m = min(res)
            piv = self.pivots.get(m)
            if piv is None:
                break
            c = res[m]
            vec_axpy(res, c, piv, p)
            if self.track:
                vec_axpy(rrep, c, self.reps[m], p)
        return res, rrep

    def insert(self, vec: dict, rep: dict | None = None):
        """Insert a vector; returns (pivot, residual_rep).

        pivot is None when the vector reduced to zero, in which case
        residual_rep (with tracking) is a linear dependence certificate:
        vec = sum(residual_rep * inserted vectors)... i.e. vec minus that
        combination of previously inserted vectors vanishes.
        """
        if self.track and rep is None:
            rep = {}
        res, rrep = self.reduce(vec, rep)
        if not res:
            return None, rrep
        m = min(res)
        c = res[m]
        if c != 1:
            inv = pow(c, self.p - 2, self.p)
            res = {k: (v * inv) % self.p for k, v in res.items()}
            if self.track:
                rrep = {k: (v * inv) % self.p for k, v in rrep.items()}
        self.pivots[m] = res
        if self.track:
            self.reps[m] = rrep
        return m, rrep

    def copy(self) -> "SparseEchelon":
        """An echelon with the same pivots; inserting into either leaves the
        other as it is.  Pivot vectors are never changed in place, so the
        copy shares them."""
        out = SparseEchelon(self.p, self.track)
        out.pivots = dict(self.pivots)
        if self.track:
            out.reps = dict(self.reps)
        return out

    def solve(self, vec: dict):
        """Express vec as a combination of the inserted vectors, or None.

        Returns coeffs with vec = sum(coeffs[i] * inserted_i) when solvable.
        """
        assert self.track
        res, rrep = self.reduce(vec, {})
        if res:
            return None
        # reduce() tracked rep with the convention residual = vec - sum(rep*inserted)
        return {k: (-v) % self.p for k, v in rrep.items()}


def kernel_basis(columns, p: int):
    """Kernel of the map sending unit j to columns[j].

    columns: list of sparse dict vectors.  Returns (rank, kernel) where
    kernel is a list of sparse coefficient dicts {j: c} with
    sum(c * columns[j]) = 0, one per dependent column, in column order.
    """
    ech = SparseEchelon(p, track_reps=True)
    kernel = []
    for j, col in enumerate(columns):
        piv, rrep = ech.insert(col, {j: 1})
        if piv is None:
            # rrep is exactly the dependence: sum(rrep * cols) = 0
            kernel.append(rrep)
    return ech.rank, kernel


def rank_of(columns, p: int) -> int:
    """Rank of a family of sparse vectors, shortest inserted first."""
    ech = SparseEchelon(p)
    for col in sorted(columns, key=len):
        ech.insert(col)
    return ech.rank
