"""k-rank of graded modules over R and the syzygy verdict tables.

k-rank(M) is the maximal d with k^d a direct summand; it is computed as
dim_k((soc M + mM)/mM).  The verdict tables need it for the syzygies
syz_i of a minimal resolution, and syzygy_krank reads it off the strands
that picked syz_i's generators as resolve_over_R built them: no strand is
built again, and d_(i+1) is never built.  It is the only route the
pipelines use.  The presentation routes it is checked against (strand
kernels on coker of a presentation, a Groebner module colon and a
Groebner-free brute force) live in the tests, in tests/support/oracle.py.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

from .complexes import GradedFreeComplex


def syzygy_krank(strands: dict, gen_degrees) -> int:
    """k-rank of a submodule N of a free module F, from the strands that
    picked its generators, of degrees gen_degrees: strands[d] = (F_d, the
    echelon of B = (mN)_d, vectors spanning N_d modulo B), as
    minimal_module_generators(spans=) and kernel_gens_over_R record them.

    Over Artinian R, soc N = N n soc(R)F.  In internal degree d let A = N_d
    and S = (soc(R)F)_d; then
    dim((soc N + mN)/mN)_d = dim(A n S) - dim(B n S)
                           = rank A - rank(A+S) - rank B + rank(B+S),
    and rank A - rank B is the number of generators picked at d.  Away from
    the generator degrees A = B, so only those degrees are visited.
    """
    total = 0
    for d, picks in Counter(gen_degrees).items():
        strand, b, vectors = strands[d]
        ech = b.copy()
        for vec in strand.socle():
            ech.insert(vec)
        rank_bs = ech.rank
        for vec in vectors:
            ech.insert(vec)   # ech is now A + S
        rank_a, rank_b = b.rank + picks, b.rank
        total += rank_a - ech.rank - rank_b + rank_bs
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


def theorem_verdicts(res: GradedFreeComplex, up_to: int,
                     burch_idx: int, mu: int, golod: bool) -> KRankReport:
    """k-ranks of syz_1..syz_up_to against the two syzygy lower bounds.

    res is the minimal resolution of the module over R through degree
    up_to, as resolve_over_R(pres, up_to) returns it (the caller builds it
    and may reuse it), with krank(syz_i) in res.kranks[i - 1].
    With Burch index b >= 2: krank(syz_i) >= 1 for i >= 5; and for Golod
    modules krank(syz_i) >= C(b,2) * mu^floor((i-4)/2) for i >= 4.
    """
    b = burch_idx
    rows = []
    for i in range(1, up_to + 1):
        betti = res.rank(i)   # 0 past the top: the module had finite pd
        kr = res.kranks[i - 1] if betti else 0
        # zero syzygies (free modules) carry no claim
        claims = betti > 0
        bg = 1 if (claims and b >= 2 and i >= 5) else None
        bgo = comb(b, 2) * mu ** ((i - 4) // 2) if (claims and golod and b >= 2 and i >= 4) else None
        ok = all(bound is None or kr >= bound for bound in (bg, bgo))
        rows.append(KRankRow(i, betti, kr, bg, bgo, ok))
    return KRankReport(burch_index=b, mu_I=mu, golod=golod, rows=rows)
