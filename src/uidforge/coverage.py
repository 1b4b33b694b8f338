"""Pre-projection corrections to raw census counts: net-omission
inflation, dual-system (capture-recapture) totals and proration of
unknown-age records.

Omission is read as the fraction of the true population the enumeration
missed, so the correction divides: true = enumerated / (1 - rate/1000).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import AgePyramid, Sex, require_finite_nonnegative
from .errors import AllocationError, DomainError, UndefinedEstimateError


@dataclass(frozen=True)
class DualSystemCounts:
    """Two overlapping enumeration lists and their matched count."""

    first_list: int
    second_list: int
    matched: int

    def __post_init__(self):
        if self.first_list < 1 or self.second_list < 1:
            raise DomainError("both list sizes must be positive")
        if self.matched < 0:
            raise DomainError("matched count cannot be negative")


@dataclass(frozen=True)
class CoverageConfig:
    """Correction parameters for one region's raw counts."""

    omission_per_1000: float = 0.0
    unknown_age_counts: Mapping = None

    def __post_init__(self):
        if not 0.0 <= self.omission_per_1000 < 1000.0:
            raise DomainError("omission_per_1000 must lie in [0, 1000)")
        unknowns = dict(self.unknown_age_counts or {})
        for sex, n in unknowns.items():
            require_finite_nonnegative(f"unknown-age count for {sex}", n)
        object.__setattr__(self, "unknown_age_counts", unknowns)

    def unknown(self, sex: Sex) -> float:
        return self.unknown_age_counts.get(sex, 0.0)


def dual_system_estimate(counts: DualSystemCounts, chapman: bool = False) -> float:
    """Total-population estimate from two partial lists.

    Standard dual-system form n1*n2/m; with ``chapman`` the
    small-sample-corrected (n1+1)(n2+1)/(m+1) - 1 is used instead.
    """
    n1, n2, m = counts.first_list, counts.second_list, counts.matched
    if m == 0:
        raise UndefinedEstimateError(
            "no overlap between the two lists; the estimate is undefined"
        )
    if m > min(n1, n2):
        raise DomainError(f"matched {m} exceeds the smaller list ({min(n1, n2)})")
    if chapman:
        return (n1 + 1) * (n2 + 1) / (m + 1) - 1.0
    return n1 * n2 / m


def apply_omission_adjustment(pyramid: AgePyramid, cfg: CoverageConfig) -> AgePyramid:
    """Inflate every cell for net enumeration omission."""
    rate = cfg.omission_per_1000
    if not 0.0 <= rate < 1000.0:
        raise DomainError("omission rate must lie in [0, 1000) per 1000")
    factor = 1.0 / (1.0 - rate / 1000.0)
    return pyramid.replace_counts(pyramid.array * factor)


def allocate_unknown_age(pyramid: AgePyramid, cfg: CoverageConfig) -> AgePyramid:
    """Prorate each sex's unknown-age count across that sex's known age
    distribution, leaving every cell's share of the sex total unchanged."""
    cells = pyramid.array.copy()
    for sex in Sex:
        unknown = cfg.unknown(sex)
        if unknown == 0.0:
            continue
        known = pyramid.total(sex)
        if known <= 0.0:
            raise AllocationError(
                f"cannot allocate {unknown} unknown-age {sex.value} records: "
                "no known-age counts to prorate over"
            )
        cells[sex.row] *= (known + unknown) / known
    return pyramid.replace_counts(cells)
