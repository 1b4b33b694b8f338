"""Pre-projection corrections to raw census counts: net-omission
inflation, dual-system (capture-recapture) totals and proration of
unknown-age records.

Each function takes its numbers as plain arguments and checks them
itself; no rule is checked anywhere else. Omission is read as the
fraction of the true population the enumeration missed, so the
correction divides: true = enumerated / (1 - rate/1000).
"""

from __future__ import annotations

from typing import Mapping

from .core import AgePyramid, Sex, require_finite_nonnegative
from .errors import AllocationError, DomainError, UndefinedEstimateError


def dual_system_estimate(
    first_list: float, second_list: float, matched: float, chapman: bool = False
) -> float:
    """Total-population estimate from two partial lists of sizes
    ``first_list`` and ``second_list`` that share ``matched`` people.

    Standard dual-system form n1*n2/m; with ``chapman`` the
    small-sample-corrected (n1+1)(n2+1)/(m+1) - 1 is used instead.
    """
    n1, n2, m = first_list, second_list, matched
    for name, value in (("first_list", n1), ("second_list", n2), ("matched", m)):
        require_finite_nonnegative(name, value)
    if n1 < 1 or n2 < 1:
        raise DomainError("both list sizes must be positive")
    if m == 0:
        raise UndefinedEstimateError(
            "no overlap between the two lists; the estimate is undefined"
        )
    if m > min(n1, n2):
        raise DomainError(f"matched {m} exceeds the smaller list ({min(n1, n2)})")
    if chapman:
        return (n1 + 1) * (n2 + 1) / (m + 1) - 1.0
    return n1 * n2 / m


def _omission_factor(omission_per_1000: float) -> float:
    """The factor ``1 / (1 - rate/1000)`` that undoes a net omission of
    ``omission_per_1000``, which must lie in [0, 1000)."""
    if not 0.0 <= omission_per_1000 < 1000.0:
        raise DomainError("omission_per_1000 must lie in [0, 1000)")
    return 1.0 / (1.0 - omission_per_1000 / 1000.0)


def apply_omission_adjustment(pyramid: AgePyramid, omission_per_1000: float) -> AgePyramid:
    """Inflate every cell for net enumeration omission."""
    return pyramid.replace_counts(pyramid.array * _omission_factor(omission_per_1000))


def allocate_unknown_age(pyramid: AgePyramid, unknown: Mapping) -> AgePyramid:
    """Prorate each sex's unknown-age count (``unknown`` maps a
    :class:`Sex` to a finite count >= 0; an absent sex counts as 0)
    across that sex's known age distribution, leaving every cell's share
    of the sex total unchanged."""
    cells = pyramid.array.copy()
    for sex in Sex:
        n = unknown.get(sex, 0.0)
        require_finite_nonnegative(f"unknown-age count for {sex}", n)
        if n == 0.0:
            continue
        known = pyramid.total(sex)
        if known <= 0.0:
            raise AllocationError(
                f"cannot allocate {n} unknown-age {sex.value} records: "
                "no known-age counts to prorate over"
            )
        cells[sex.row] *= (known + n) / known
    return pyramid.replace_counts(cells)
