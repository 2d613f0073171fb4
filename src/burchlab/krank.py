"""k-rank of graded modules over R and the syzygy verdict tables.

k-rank(M) is the maximal d with k^d a direct summand; it is computed as
dim_k((soc M + mM)/mM).  The verdict tables need it for the syzygies
syz_i = im(d_i) of a minimal resolution, and krank_image computes it for
the image of a matrix from ranks alone, degree by degree: it takes no
kernel and never builds d_(i+1).  It is the only route the pipelines use.
The presentation routes it is checked against (strand kernels on coker of
a presentation, a Groebner module colon and a Groebner-free brute force)
live in the tests, in tests/support/oracle.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .complexes import GradedFreeComplex
from .groebner import Ideal, Strand
from .matrices import PolyMatrix


def krank_image(matrix: PolyMatrix, quotient: Ideal) -> int:
    """k-rank of the submodule N = im(matrix) of the free module F it maps into.

    Over Artinian R, soc N = N n soc(R)F.  In internal degree d let
    A = N_d, B = (mN)_d and S = (soc(R)F)_d; then
    dim((soc N + mN)/mN)_d = dim(A n S) - dim(B n S)
                           = rank A - rank(A+S) - rank B + rank(B+S).
    Away from the column degrees A = B, so only those degrees are visited.
    """
    table = quotient.table()
    cols = [(matrix.column(j), deg) for j, deg in enumerate(matrix.col_degrees)]
    total = 0
    for d in sorted(set(matrix.col_degrees)):
        strand = Strand(table, matrix.row_degrees, d)
        b = strand.span(cols, 1)
        bs = b.copy()
        for vec in strand.socle():
            bs.insert(vec)
        a, a_s = b.copy(), bs.copy()
        for v, deg in cols:
            if deg == d:
                vec = strand.vector(v.coords)
                a.insert(vec)
                a_s.insert(vec)
        total += a.rank - a_s.rank - b.rank + bs.rank
    return total


# ---------------------------------------------------------------------------
# theorem verdict tables
# ---------------------------------------------------------------------------


@dataclass
class KRankRow:
    index: int
    betti: int
    krank: int
    bound_general: int | None  # >= 1 claims, when applicable
    bound_golod: int | None
    ok: bool


@dataclass
class KRankReport:
    burch_index: int
    mu_I: int
    golod: bool
    rows: list

    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_dict(self):
        return {
            "burchIndex": self.burch_index,
            "muI": self.mu_I,
            "golod": self.golod,
            "complete": True,  # every row is computed; the goldens keep the key
            "rows": [
                {
                    "i": r.index,
                    "betti": r.betti,
                    "krank": r.krank,
                    "boundGeneral": r.bound_general,
                    "boundGolod": r.bound_golod,
                    "ok": r.ok,
                }
                for r in self.rows
            ],
        }


def theorem_verdicts(I: Ideal, res: GradedFreeComplex, up_to: int,
                     burch_idx: int, mu: int, golod: bool) -> KRankReport:
    """k-ranks of syz_1..syz_up_to against the two syzygy lower bounds.

    res is the minimal resolution of the module over R through degree
    up_to, as resolve_over_R(pres, up_to) returns it (the caller builds it
    and may reuse it); syz_i is the image of d_i.
    With Burch index b >= 2: krank(syz_i) >= 1 for i >= 5; and for Golod
    modules krank(syz_i) >= C(b,2) * mu^floor((i-4)/2) for i >= 4.
    """
    b = burch_idx
    rows = []
    for i in range(1, up_to + 1):
        if i > res.top():
            # resolution terminated: syzygy is zero (module had finite pd)
            kr, betti = 0, 0
        else:
            kr = krank_image(res.diff(i), I)
            betti = res.rank(i)
        # zero syzygies (free modules) carry no claim
        claims = betti > 0
        bg = 1 if (claims and b >= 2 and i >= 5) else None
        bgo = comb(b, 2) * mu ** ((i - 4) // 2) if (claims and golod and b >= 2 and i >= 4) else None
        ok = True
        if bg is not None and kr < bg:
            ok = False
        if bgo is not None and kr < bgo:
            ok = False
        rows.append(KRankRow(i, betti, kr, bg, bgo, ok))
    return KRankReport(burch_index=b, mu_I=mu, golod=golod, rows=rows)
