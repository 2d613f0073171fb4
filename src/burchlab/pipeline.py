"""End-to-end pipelines shared by the CLI and the verification suite.

A RingContext packages the ring data (ideal, Burch data, socle); builders
assemble the dg pair (X, Y) or the transferred A-infinity pair for a
presented module, and the verify_* functions run the two theorem pipelines
and the k-rank verdict tables, returning plain dict reports.  The two
pipelines differ only in the pair, the cycle family, the row shape and the
bound: both certify their cycles in _certified_cycles and end in
_verdict_tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

from .ainfty import AInfAlgebra, AInfModule
from .bar import BarComplex
from .burch import BurchData, burch_data, burch_ideal, burch_index, minimal_generators
from .contraction import minimalize
from .cycles import (burch_cycles, project_to_minimal, rho_cycles_general,
                     rho_cycles_golod, splitting_check)
from .dgmodule import build_semifree_resolution, taylor_module_fast_path
from .errors import InputError
from .golod import golod_check
from .groebner import Ideal, maximal_ideal
from .krank import theorem_verdicts
from .resolve import ModulePresentation, resolve_over_R
from .ring import PolyRing
from .tate import acyclic_closure
from .taylor import TaylorComplex


# depth of verify_general's k-rank verdict table: syz_1 .. syz_ORACLE_THROUGH
ORACLE_THROUGH = 9


@dataclass
class Caps:
    hom_degree: int = 10
    arity: int = 4
    degree: int = 10             # echo-only: no pipeline reads it
    brute_force_dim: int = 400   # echo-only
    general_qs: tuple = (4, 5)


@dataclass
class RingContext:
    """The ring data of one job: the Burch ideal and index, built once, and
    the certified Burch data when the index is >= 1, built on first read
    (resolve reads only the index and mu).  minimal_gens are the Burch
    data's generators when there are any.  Every resolution X of R the
    pipelines build has X_1 on minimal_gens, in order: d(e_t) is
    minimal_gens[t], which is what burch_cycles requires."""

    ring: PolyRing
    ideal: Ideal
    index: int
    burch_ideal: Ideal

    @classmethod
    def build(cls, ring: PolyRing, ideal: Ideal) -> "RingContext":
        BI = burch_ideal(ideal)
        return cls(ring=ring, ideal=ideal, index=burch_index(ideal, BI), burch_ideal=BI)

    @cached_property
    def burch(self) -> BurchData | None:
        return burch_data(self.ideal, self.burch_ideal) if self.index >= 1 else None

    @cached_property
    def minimal_gens(self) -> list:
        bd = self.burch
        return bd.gens if bd is not None else minimal_generators(self.ideal.gens, self.ring)

    @cached_property
    def mu(self) -> int:
        """Every minimal generating set of I has this size, so no witness is read."""
        return len(minimal_generators(self.ideal.gens, self.ring))

    def burch_summary(self) -> dict:
        bd = self.burch
        out = {
            "burchIndex": self.index,
            "burchIdeal": [str(g) for g in self.burch_ideal.groebner()],
            "socle": [str(g) for g in (bd.socle if bd is not None
                                       else self.ideal.colon(maximal_ideal(self.ring))).groebner()],
            "minimalGenerators": [str(g) for g in self.minimal_gens],
        }
        if bd is not None:
            out["witness"] = {
                "x": [str(x) for x in bd.xs[:bd.b]],
                "xExtension": [str(x) for x in bd.xs[bd.b:]],
                "socleLifts": [str(s) for s in bd.socle_lifts],
                "generatorIndex": [j + 1 for j in bd.j_indices],
            }
        return out


def taylor_generators(ctx: RingContext) -> list:
    gens = ctx.minimal_gens
    if not all(len(g.terms) == 1 for g in gens):
        raise InputError("Taylor resolutions need a monomial ideal")
    return gens


# How deep each pair grows Y (build_semifree_resolution to up_to: every
# generator of degree <= up_to, H_n(Y) = 0 checked for 1 <= n < up_to, and
# the basis listed through degree up_to):
# * dg pair: Y to the bar's cap.  B(R, X, Y) to the cap reads y of degree
#   <= cap only, and the cycles read psi(x) = x * y_0 at x = 1 and x = e
#   only; a generator of degree cap + 1 would only append basis pairs of
#   degree >= cap + 1, so Y_(<=cap) and d_1..d_cap are the same without it.
# * A-infinity pair: the dg pair to hom_degree + 2, Y's minimal model kept
#   through hom_degree + 1 (Contraction.truncated), where it is the minimal
#   resolution of M over Q; above lies Y's top degree hom_degree + 2, with
#   H_(hom_degree + 2) unkilled.  Listing one degree more would change none
#   of the model kept: minimalize eliminates level by level going up, and
#   that level would come last and touch only degree >= hom_degree + 2.
# * fast path: Y complete, the Taylor complex of the J-list, and its
#   minimal model complete, the minimal Q-resolution of M (top t_Y <= nvars).
#   The transfer reads X's product and the action only in degrees up to the
#   tops of the minimal models, max(t_X, t_Y) and t_Y, and the fast path
#   checks Leibniz through those degrees (taylor_module_fast_path).


def dg_pair(ctx: RingContext, pres: ModulePresentation, cap: int, algebra: str = "taylor"):
    """Dg algebra resolution X of R and semifree dg X-module Y of M, Y to
    the cap (see the depths above).

    algebra = "taylor" uses the Taylor complex (monomial ideals; products of
    coprime generators are unit multiples of basis elements).  "tate" uses
    the acyclic closure, whose free underlying algebra the odd-degree
    general-case cycles require.
    """
    if algebra == "taylor":
        X = TaylorComplex(ctx.ring, taylor_generators(ctx))
    elif algebra == "tate":
        X = acyclic_closure(ctx.ring, ctx.minimal_gens, through=cap)
    else:
        raise ValueError(f"unknown algebra {algebra!r}")
    return X, build_semifree_resolution(pres, X, up_to=cap)


def ainf_pair(ctx: RingContext, pres: ModulePresentation, caps: Caps):
    """Transferred A-infinity structures on the minimal resolutions of R and
    M (see the depths above)."""
    cyclic_monomial = (
        pres.ambient_rank == 1
        and all(len(v.coords) == 1 and 0 in v.coords and len(v.coords[0].terms) == 1
                for v in pres.relations)
    )
    if cyclic_monomial:
        # no rank guard: the Taylor complex of s generators has 2^s basis
        # elements, and TaylorComplex refuses s > TAYLOR_GENERATOR_CAP
        X, big_module, ctr_x, ctr_y = taylor_module_fast_path(
            ctx.ring, taylor_generators(ctx), [v.coords[0] for v in pres.relations])
    else:
        X, big_module = dg_pair(ctx, pres, caps.hom_degree + 2)
        ctr_x = minimalize(X.complex)
        ctr_y = minimalize(big_module.complex).truncated(caps.hom_degree + 1)
    alg = AInfAlgebra(ctr_x, X, arity_cap=caps.arity)
    return alg, AInfModule(alg, ctr_y, big_module, arity_cap=caps.arity)


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


def _certified_cycles(ctx: RingContext, bar: BarComplex, qs, family) -> list:
    """The certified-cycle loop of both theorems: the Burch cycles on the
    bar's X, then per q the family's cycles in B_q, the splitting verdict
    of each, and the survivor count of their projection to the minimal bar.
    One (q, cycle count, verdicts, survivors) per q; with no q nothing is
    built."""
    if not qs:
        return []
    bcs = burch_cycles(ctx.burch, bar.alg.complex)
    ctr = minimalize(bar.complex)
    out = []
    for q in qs:
        recs = family(bcs, bar, q)
        split = [splitting_check(r.rho, bar.complex.diff(q), ctx.burch) for r in recs]
        _, survivors = project_to_minimal(ctr, recs, ctx.ideal, q)
        out.append((q, len(recs), split, survivors))
    return out


def _verdict_tail(report: dict, ctx: RingContext, pres: ModulePresentation, rows: list,
                  holds: bool, through: int, golod: bool) -> dict:
    """The tail of both theorem reports: the cycle rows, the k-rank verdict
    table of syz_1..syz_through, and the bounds, which hold when every
    verdict row is ok and the cycles do (holds).

    bounds.vacuous implies bounds.allHold: with Burch index < 2 every bound
    row of the verdict table is None and no cycle is built.
    """
    report["cycles"] = rows
    res = resolve_over_R(pres, through)
    verdicts = theorem_verdicts(res, through, ctx.index, ctx.mu, golod=golod)
    report["krank"] = verdicts.to_dict()
    report["bounds"] = {"vacuous": ctx.index < 2, "allHold": verdicts.all_ok() and holds}
    return report


def verify_golod(ctx: RingContext, pres: ModulePresentation, caps: Caps) -> dict:
    """Theorem-B pipeline: golod check, cycle families in every degree
    3 <= q < cap, splitting, survival, and the k-rank verdict table."""
    report: dict = {"burch": ctx.burch_summary()}
    alg, mod = ainf_pair(ctx, pres, caps)
    cap = caps.hom_degree
    report["golod"], bar = golod_check(alg, mod, ctx.ideal, cap)
    golod = report["golod"]["golod"]
    qs = range(3, cap) if ctx.index >= 2 and golod else ()
    rows = [{"q": q, "cycles": n, "expected": comb(ctx.index, 2) * ctx.mu ** ((q - 3) // 2),
             "allSplit": all(s.ok for s in split), "survivors": survivors,
             "witnesses": [str(s.witness) for s in split[:3]]}
            for q, n, split, survivors in _certified_cycles(ctx, bar, qs, rho_cycles_golod)]
    holds = all(r["cycles"] == r["expected"] == r["survivors"] and r["allSplit"] for r in rows)
    return _verdict_tail(report, ctx, pres, rows, holds, cap + 1, golod)


def verify_general(ctx: RingContext, pres: ModulePresentation, caps: Caps,
                   oracle_through: int = ORACLE_THROUGH) -> dict:
    """Theorem-A pipeline: dg bar cycles, splitting, measured survival, and
    the k-rank oracle for krank(syz_i) >= 1, i >= 5.

    Even q uses the Taylor dg algebra; odd q needs the acyclic closure.
    Survivor counts are measured and reported; the asserted bound is the
    oracle one (see the ledger on the non-minimal splitting gap).  With
    Burch index < 2 no q runs and no bound is claimed.
    """
    report: dict = {"burch": ctx.burch_summary()}
    qs = sorted(set(caps.general_qs)) if ctx.index >= 2 else []
    rows = []
    for algebra, parity in (("taylor", 0), ("tate", 1)):
        use_qs = [q for q in qs if q % 2 == parity]
        if not use_qs:
            continue
        X, Y = dg_pair(ctx, pres, cap=max(use_qs) + 1, algebra=algebra)
        bar = BarComplex(X, Y, ctx.ideal, cap=max(use_qs) + 1)
        rows += [{"q": q, "algebra": algebra, "cycles": n,
                  "allCyclesExact": True,  # rho_cycles_general verifies d(alpha) = 0
                  "allSplit": all(s.ok for s in split),
                  "witnesses": [str(s.witness) for s in split], "survivors": survivors}
                 for q, n, split, survivors in _certified_cycles(ctx, bar, use_qs,
                                                                  rho_cycles_general)]
    _verdict_tail(report, ctx, pres, rows, all(r["allSplit"] for r in rows), oracle_through,
                  golod=False)
    if ctx.index < 2:
        report["bounds"]["note"] = "Burch index < 2: no bound claimed"
        report["cycles"] = report.pop("cycles")   # the vacuous report lists its cycles last
    return report


def resolve_report(ctx: RingContext, pres: ModulePresentation, caps: Caps) -> dict:
    """Betti numbers through caps.hom_degree and the verdict table through
    one degree less; no bound is asserted."""
    res = resolve_over_R(pres, caps.hom_degree)
    verdicts = theorem_verdicts(res, caps.hom_degree - 1, ctx.index, ctx.mu, golod=False)
    return {"betti": res.poincare_coeffs(), "krank": verdicts.to_dict()}


def bar_report(ctx: RingContext, pres: ModulePresentation, caps: Caps, regime: str) -> dict:
    cap = caps.hom_degree
    if regime == "dg":
        alg, mod = dg_pair(ctx, pres, cap=cap)
    elif regime == "ainf":
        alg, mod = ainf_pair(ctx, pres, caps)
    else:
        raise InputError(f"unknown regime {regime!r}")
    bar = BarComplex(alg, mod, ctx.ideal, cap=cap, exact_through=cap - 1)
    return {
        "regime": regime,
        "ranks": bar.ranks,
        "ddZero": True,
        "exactBelowCap": True,
        "minimal": bar.complex.is_minimal(),
        "h0Dims": bar.h0_dims(max(2, max(pres.gen_degrees, default=0) + 2)),
        "moduleDims": pres.dims(max(2, max(pres.gen_degrees, default=0) + 2)),
    }
