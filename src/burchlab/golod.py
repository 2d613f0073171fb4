"""Golod detection through minimality of the A-infinity bar resolution.

A module is Golod for Q -> R exactly when the bar resolution built from
minimal A-infinity structures is itself minimal; its ranks then attain the
coefficientwise upper bound P^Q_M(t) / (1 - t (P^Q_R(t) - 1)).  The bar's
rank formula check, run when the bar is built, computes that series from
the minimal resolutions' ranks, independently of the bar's own basis
enumeration, and raises unless the ranks equal it; what is left to decide
is whether the assembled bar differential has unit entries.
"""

from __future__ import annotations

from .bar import BarComplex
from .errors import InternalCheckError
from .groebner import Ideal


def golod_check(alg, mod, quotient: Ideal, cap: int) -> tuple:
    """Build the A-infinity bar to the cap and test Golodness.

    Returns (the report's golod block, BarComplex).  The bar has matched its
    ranks against poincare_bound_series of the rank lists PRoverQ and
    PMoverQ at construction, so poincareBound is barRanks.
    """
    if not alg.complex.is_minimal() or not mod.complex.is_minimal():
        raise InternalCheckError("golod check needs minimal X and Y")
    bar = BarComplex(alg, mod, quotient, cap=cap)
    first = next(bar.complex.unit_entries(), None)
    return {
        "golod": first is None,
        "barRanks": bar.ranks,
        "poincareBound": bar.ranks,
        "PRoverQ": alg.complex.poincare_coeffs(),
        "PMoverQ": mod.complex.poincare_coeffs(),
        "barMinimal": first is None,
        "firstUnitEntry": list(first) if first else None,
    }, bar
