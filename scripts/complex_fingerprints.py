#!/usr/bin/env python3
"""Print two hashes per case of the complexes the pipelines build, to
check that a refactor leaves them entry for entry the same.

The grid is five rings of k[x,y] times three modules (k, R/(x), and the
2-generated coker of the relations x e_0 and y e_0 + x e_1).  Three rings
are monomial: m2 = (x,y)^2, bione = (x^4, x^2y, y^2) and jn = (x^3, x^2y,
xy, y^2).  Two are not, so their normal forms go through the R-table's
reduction against a non-monomial Groebner basis: gor = (x^2 - y^2, xy)
and mixed = (x^2, xy + y^2, y^3).  The first hash of a monomial case
covers:

* the Taylor and the Tate dg pair (X, Y) and their bar at cap 4;
* the Tate pair and its bar at cap 6, the depth verify_general builds for
  the odd q = 5 of the default Caps (perfbench's theorem-a workload);
* the A-infinity pair and its bar at cap 5, with the contractions the
  pair is transferred along (alg.ctr and mod.ctr);
* minimalize(bar) of each of the four bars.

A non-monomial ring has no Taylor complex, so its first hash covers the
Tate pair at cap 4, its bar and minimalize(bar).  The second hash of every
case covers resolve_over_R(pres, 6) and the k-rank rows of its syzygies.

A complex hashes its degree labels and every d_n in column order, with the
row order within each column and the term order of each entry; X and Y
add their key listings and positions, a bar its words and positions.  A
contraction hashes its small complex, its alive indices, and incl, proj
and htpy at every degree: the degree labels, then each matrix's columns in
their stored order, with row and term order.
Run it on two checkouts and diff the output:

    PYTHONPATH=src python scripts/complex_fingerprints.py > after.txt
"""

import hashlib

from burchlab.bar import BarComplex
from burchlab.contraction import minimalize
from burchlab.groebner import Ideal
from burchlab.krank import theorem_verdicts
from burchlab.matrices import FreeModuleElement
from burchlab.pipeline import Caps, RingContext, ainf_pair, dg_pair
from burchlab.resolve import ModulePresentation, resolve_over_R
from burchlab.ring import PolyRing

RINGS = {
    "m2": ["x^2", "x*y", "y^2"],
    "bione": ["x^4", "x^2*y", "y^2"],
    "jn": ["x^3", "x^2*y", "x*y", "y^2"],
    "gor": ["x^2 - y^2", "x*y"],
    "mixed": ["x^2", "x*y + y^2", "y^3"],
}
RESOLVE_THROUGH = 6


def modules(ideal):
    ring = ideal.ring
    x, y = ring.var(0), ring.var(1)
    two = [FreeModuleElement(ring, {0: x}), FreeModuleElement(ring, {0: y, 1: x})]
    return {
        "k": ModulePresentation.residue_field(ideal),
        "R/(x)": ModulePresentation.cyclic(ideal, [x]),
        "two-gen": ModulePresentation(ring, ideal, [0, 0], two),
    }


def complex_record(cx):
    out = []
    for n in range(cx.top() + 1):
        d = cx.diff(n)
        cols = [(j, [(i, list(f.terms.items())) for i, f in d.columns[j].items()])
                for j in range(d.cols) if j in d.columns]
        out.append((n, cx.basis_degrees(n), d.row_degrees, d.col_degrees, cols))
    return out


def matrix_record(m):
    return (m.row_degrees, m.col_degrees,
            [(j, [(i, list(f.terms.items())) for i, f in col.items()])
             for j, col in m.columns.items()])


def contraction_record(ctr):
    return (complex_record(ctr.small), ctr.alive,
            [[(n, matrix_record(maps[n])) for n in sorted(maps)]
             for maps in (ctr.incl, ctr.proj, ctr.htpy)])


def keys_record(structure):
    """The key listing and positions of a Taylor complex or an adjunction engine."""
    if hasattr(structure, "subsets"):
        return structure.subsets, structure.position
    if hasattr(structure, "_basis"):
        structure.complex  # lists the basis
        return structure._basis, {d: structure.position(d, k) for d, ks in
                                  structure._basis.items() for k in ks}
    return None


def bar_record(bar):
    return (bar.ranks, bar.words, {n: list(p.items()) for n, p in bar.pos.items()},
            complex_record(bar.complex), contraction_record(minimalize(bar.complex)))


def digest(parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def pair_hash(ctx, pres) -> str:
    monomial = ctx.ideal.is_monomial()
    parts = []
    for algebra, cap in (("taylor", 4), ("tate", 4), ("tate", 6)) if monomial else (("tate", 4),):
        X, Y = dg_pair(ctx, pres, cap=cap, algebra=algebra)
        parts.append((algebra, cap, complex_record(X.complex), keys_record(X),
                      complex_record(Y.complex), keys_record(Y),
                      bar_record(BarComplex(X, Y, ctx.ideal, cap=cap))))
    if monomial:
        alg, mod = ainf_pair(ctx, pres, Caps(hom_degree=5))
        parts.append(("ainf", complex_record(alg.complex), complex_record(mod.complex),
                      bar_record(BarComplex(alg, mod, ctx.ideal, cap=5)),
                      contraction_record(alg.ctr), contraction_record(mod.ctr)))
    return digest(parts)


def resolve_hash(ctx, pres) -> str:
    res = resolve_over_R(pres, RESOLVE_THROUGH)
    rows = theorem_verdicts(res, RESOLVE_THROUGH, ctx.index, ctx.mu, golod=False)
    return digest((complex_record(res), rows.to_dict()["rows"]))


def main():
    ring = PolyRing(32003, ("x", "y"))
    for name, gens in RINGS.items():
        ideal = Ideal(ring, [ring.parse(g) for g in gens])
        ctx = RingContext.build(ring, ideal)
        for label, pres in modules(ideal).items():
            print(f"{name} {label} {pair_hash(ctx, pres)} {resolve_hash(ctx, pres)}")


if __name__ == "__main__":
    main()
