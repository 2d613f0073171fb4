#!/usr/bin/env python3
"""Desk-scale verification of both syzygy theorems on the two main rings.

Runs the Golod pipeline (exact cycle counts, splitting, survival in the
minimal bar, k-rank oracle) on k over k[x,y]/(x,y)^2 and k[x,y,z]/(x,y,z)^2,
and the general pipeline (cycles, splitting criterion, measured survivors,
oracle bound) on the same rings.  Prints one block per run.
"""

import json
import time

from burchlab.groebner import Ideal
from burchlab.pipeline import Caps, RingContext, verify_general, verify_golod
from burchlab.resolve import ModulePresentation
from burchlab.ring import PolyRing, monomials_of_degree


def block(title, body):
    print(f"== {title} ==")
    print(json.dumps({k: v for k, v in body.items() if k != "burch"}, indent=1))
    print()


def main():
    for nvars, caps in ((2, Caps(hom_degree=8)), (3, Caps(hom_degree=6))):
        ring = PolyRing(32003, tuple("xyz"[:nvars]))
        ideal = Ideal(ring, [ring.monomial(m) for m in monomials_of_degree(nvars, 2)])
        ctx = RingContext.build(ring, ideal)
        k = ModulePresentation.residue_field(ideal)
        t0 = time.perf_counter()
        body = verify_golod(ctx, k, caps)
        block(f"verify-golod: k over the {nvars}-variable square ({time.perf_counter()-t0:.1f}s)", body)
        t0 = time.perf_counter()
        caps_g = Caps(hom_degree=caps.hom_degree,
                      general_qs=(4, 5) if nvars == 2 else (4,))
        body = verify_general(ctx, k, caps_g)
        block(f"verify-general: k over the {nvars}-variable square ({time.perf_counter()-t0:.1f}s)", body)


if __name__ == "__main__":
    main()
