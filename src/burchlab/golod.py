"""Golod detection through minimality of the A-infinity bar resolution.

A module is Golod for Q -> R exactly when the bar resolution built from
minimal A-infinity structures is itself minimal; its ranks then attain the
coefficientwise upper bound P^Q_M(t) / (1 - t (P^Q_R(t) - 1)).  The bar's
rank formula check computes that series from the minimal resolutions'
ranks, independently of the bar's own basis enumeration, and raises unless
the ranks equal it; what is left to decide is whether the assembled bar
differential has unit entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bar import BarComplex
from .errors import InternalCheckError
from .groebner import Ideal


@dataclass
class GolodReport:
    golod: bool
    bar_ranks: list
    series: list
    px: list
    py: list
    minimal: bool
    first_unit_entry: tuple | None

    def to_dict(self):
        return {
            "golod": self.golod,
            "barRanks": self.bar_ranks,
            "poincareBound": self.series,
            "PRoverQ": self.px,
            "PMoverQ": self.py,
            "barMinimal": self.minimal,
            "firstUnitEntry": list(self.first_unit_entry) if self.first_unit_entry else None,
        }


def golod_check(alg, mod, quotient: Ideal, cap: int) -> tuple:
    """Build the A-infinity bar to the cap and test Golodness.

    Returns (GolodReport, BarComplex).  The report's series is the list of
    bar ranks, which rank_formula_check has already matched against
    bar.poincare_bound_series of the rank polynomials px and py.
    """
    if not alg.complex.is_minimal() or not mod.complex.is_minimal():
        raise InternalCheckError("golod check needs minimal X and Y")
    bar = BarComplex(alg, mod, quotient, cap=cap)
    ranks = bar.rank_formula_check()
    first = next(bar.complex.unit_entries(), None)
    report = GolodReport(
        golod=first is None,
        bar_ranks=ranks,
        series=ranks,
        px=[alg.complex.rank(n) for n in range(alg.complex.top() + 1)],
        py=[mod.complex.rank(n) for n in range(mod.complex.top() + 1)],
        minimal=first is None,
        first_unit_entry=first,
    )
    return report, bar
