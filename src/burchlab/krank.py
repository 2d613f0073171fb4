"""k-rank of graded modules over R and the syzygy verdict tables.

k-rank(M) is the maximal d with k^d a direct summand; it is computed as
dim_k((soc M + mM)/mM).  krank_strand finds the socle strand by strand with
k-linear algebra, which scales to the large graded Artinian modules the
verdict tables need; it is the only route the pipelines use.  The Groebner
module-colon route and the Groebner-free brute force it is checked against
live in oracle.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .complexes import GradedFreeComplex
from .errors import InputError
from .groebner import Ideal, Strand
from .linalg import kernel_basis
from .resolve import ModulePresentation
from .ring import mono_deg


def krank_strand(pres: ModulePresentation) -> int:
    """Socle strand by strand; needs an Artinian quotient."""
    ring = pres.ring
    table = pres.quotient.table()
    if table.top is None:
        raise InputError("strand k-rank needs an Artinian quotient")
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
                res, _ = ech_up.reduce(tgt.vector({i: x}, m))
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


def syzygy_presentation(res, i: int, quotient: Ideal) -> ModulePresentation:
    """syz_i as coker(d_{i+1}: F_{i+1} -> F_i); needs the resolution to i+1."""
    ring = res.ring
    gen_degrees = res.basis_degrees(i)
    mat = res.diff(i + 1)
    rels = [mat.column(j) for j in range(mat.cols)]
    return ModulePresentation(ring, quotient, list(gen_degrees), rels)


def theorem_verdicts(I: Ideal, res: GradedFreeComplex, up_to: int,
                     burch_idx: int, mu: int, golod: bool) -> KRankReport:
    """k-ranks of syz_1..syz_up_to against the two syzygy lower bounds.

    res is the minimal resolution of the module over R through degree
    up_to + 1, as resolve_over_R(pres, up_to + 1) returns it (the caller
    builds it, with its own rank guard, and may reuse it).
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
            sp = syzygy_presentation(res, i, I)
            kr = krank_strand(sp)
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
