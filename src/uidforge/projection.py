"""Population projection: annual births, cohort survival and the
year-by-year projection loop.

Births in a year are

    B = sum over mother ages x = 15..49 of s(x, x+1) * P(x) * F(x) * K

with P(x) the female count at age x, F(x) the age-specific fertility
rate and K the eligible proportion; the survival factor applies to the
mothers before the rate does. Cohorts age through the difference
equation

    P[t+1](x+1) = P[t](x) * s(x, x+1)

and age groups are survived by summing the single-year cohorts of the
group (rectangle rule on single-year cells).

The arithmetic runs on float64 arrays of shape ``(2, n_ages)`` (rows in
:data:`~uidforge.core.SEX_ROWS` order), the Leslie-matrix form of the
model: the one-year step is a shifted multiply with births written into
age 0, survival over a span is the left-to-right product of the one-year
factors, and deaths are ``P * (1 - s)``. Every caller goes through these
functions: :func:`project_population` steps each year with
:func:`project_births` and :func:`survive_cohorts` on pyramids whose
counts read straight from the array
(:meth:`~uidforge.core.AgePyramid.from_array`), and the card ledger
consumes its frames. Cells are validated where data enters (the CSV
loaders, :func:`~uidforge.core.validate_pyramid`), not re-checked here.
A :class:`ProjectionSeries` keeps all frames in one
``(horizon + 1, 2, n_ages)`` array and builds :class:`AgePyramid`
frames only when asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (
    REPRODUCTIVE_AGE_MAX,
    REPRODUCTIVE_AGE_MIN,
    SEX_ROWS,
    AgeAxis,
    AgePyramid,
    FertilityConfig,
    RegionId,
    Sex,
    SurvivalSchedule,
)
from .errors import DomainError

_BAND = slice(REPRODUCTIVE_AGE_MIN, REPRODUCTIVE_AGE_MAX + 1)


@dataclass(frozen=True)
class BirthCount:
    """Live births in one year, split by sex of the newborn."""

    total: float
    by_sex: Mapping

    def __post_init__(self):
        by_sex = dict(self.by_sex)
        object.__setattr__(self, "by_sex", by_sex)
        if self.total < 0 or any(n < 0 for n in by_sex.values()):
            raise DomainError("birth counts must be non-negative")

    def sex_count(self, sex: Sex) -> float:
        return self.by_sex.get(sex, 0.0)

    @classmethod
    def split(cls, total: float, male_share: float) -> "BirthCount":
        male = total * male_share
        female = total - male
        return cls(total, {Sex.MALE: male, Sex.FEMALE: female})


@dataclass(frozen=True, eq=False)
class ProjectionSeries:
    """Annual projection frames of one region; frame 0 holds the input
    pyramid's cells (missing cells as 0). ``counts[k]`` is frame k as a
    ``(2, n_ages)`` array."""

    region: RegionId
    start: int
    axis: AgeAxis
    counts: np.ndarray

    def __post_init__(self):
        if self.counts.ndim != 3 or self.counts.shape[1:] != (2, self.axis.n_ages):
            raise DomainError(
                f"series needs a (horizon+1, 2, {self.axis.n_ages}) array, "
                f"got shape {self.counts.shape}"
            )
        self.counts.flags.writeable = False

    @property
    def horizon(self) -> int:
        return len(self.counts) - 1

    def frame(self, k: int) -> AgePyramid:
        k = range(len(self.counts))[k]
        return AgePyramid.from_array(self.region, self.start + k, self.axis, self.counts[k])

    @property
    def frames(self) -> tuple:
        return tuple(self.frame(k) for k in range(len(self.counts)))


def _check_axes(pop: AgePyramid, survival: SurvivalSchedule):
    if pop.axis.max_age != survival.axis.max_age:
        raise DomainError(
            f"pyramid axis (max_age {pop.axis.max_age}) does not match "
            f"survival axis (max_age {survival.axis.max_age})"
        )


def _check_reproductive_cells(pop: AgePyramid):
    if pop.complete and pop.axis.max_age >= REPRODUCTIVE_AGE_MAX:
        return
    missing = [
        x
        for x in range(REPRODUCTIVE_AGE_MIN, REPRODUCTIVE_AGE_MAX + 1)
        if not pop.has_cell(Sex.FEMALE, x)
    ]
    if missing:
        raise DomainError(f"pyramid lacks female counts at reproductive ages {missing}")


def death_counts(counts: np.ndarray, survival: np.ndarray) -> np.ndarray:
    """Expected deaths during one year by sex and age at the start of the
    year, for counts of shape ``(..., 2, n_ages)``."""
    return counts * (1.0 - survival)


def _births(counts: np.ndarray, survival: np.ndarray, fert: FertilityConfig) -> BirthCount:
    """Births from ``(2, n_ages)`` counts and survival; the terms are
    accumulated in age order, 15 first."""
    f = Sex.FEMALE.row
    terms = survival[f, _BAND] * counts[f, _BAND] * fert.band_rates * fert.eligible_proportion
    return BirthCount.split(float(np.cumsum(terms)[-1]), fert.male_share)


def _survive(counts: np.ndarray, survival: np.ndarray, span: int) -> np.ndarray:
    """Cohorts aged ``span`` years; the factor for age x is the
    left-to-right product s(x) * s(x+1) * ... * s(x+span-1)."""
    n = counts.shape[-1]
    factor = survival[..., : n - span]
    for k in range(1, span):
        factor = factor * survival[..., k : n - span + k]
    out = np.zeros_like(counts)
    out[..., span:] = counts[..., : n - span] * factor
    return out


def project_births(
    pop: AgePyramid, survival: SurvivalSchedule, fert: FertilityConfig
) -> BirthCount:
    """Expected live births over one year from the female population.

    Requires a female count cell (possibly zero) at every reproductive
    age 15..49; a missing cell is a data error, not an implicit zero.
    The ``project`` and ``demand`` commands densify each pyramid first,
    so there a missing cell, reproductive ages included, counts as 0;
    the check still applies to library callers, and to those commands
    when ``--max-age`` ends before 49.
    """
    _check_axes(pop, survival)
    _check_reproductive_cells(pop)
    return _births(pop.array, survival.array, fert)


def apply_infant_survival(births: BirthCount, fert: FertilityConfig) -> BirthCount:
    """Scale births down to the children who complete their first year.

    Used only when cards are issued at age one rather than at birth; the
    projection loop itself never removes infants.
    """
    male = births.sex_count(Sex.MALE) * fert.infant_survival
    female = births.sex_count(Sex.FEMALE) * fert.infant_survival
    return BirthCount(male + female, {Sex.MALE: male, Sex.FEMALE: female})


def survive_cohorts(
    pop: AgePyramid, survival: SurvivalSchedule, span: int
) -> AgePyramid:
    """Age every cohort forward ``span`` years under the survival schedule.

    Output count at age x+span is the input count at age x times the
    composed survival over the span; ages below ``span`` in the output
    are zero (no births here), and cohorts that would pass the last age
    of life are gone. The result is dense over the full axis.
    """
    _check_axes(pop, survival)
    omega = pop.axis.max_age
    if span < 1:
        raise DomainError(f"span must be >= 1, got {span}")
    if span > omega:
        raise DomainError(f"span {span} exceeds the age axis (max_age {omega})")
    return AgePyramid._over(
        pop.region, pop.time_label + span, pop.axis, _survive(pop.array, survival.array, span)
    )


def age_group_survivors(
    pop: AgePyramid,
    survival: SurvivalSchedule,
    start_age: int,
    width: int,
    span: int,
    sex: Sex | None = None,
) -> float:
    """Survivors after ``span`` years out of the age group
    [start_age, start_age + width).

    Discretizes the group total with the rectangle rule on single-year
    cells: sum over t = 0..width-1 of p(start_age+t) * survival over the
    span. With ``sex`` None both sexes are summed. Equals the sum of the
    corresponding :func:`survive_cohorts` output cells by construction.
    """
    _check_axes(pop, survival)
    omega = pop.axis.max_age
    if width < 1:
        raise DomainError(f"width must be >= 1, got {width}")
    if span < 0:
        raise DomainError(f"span must be >= 0, got {span}")
    if start_age < 0 or start_age + width + span > omega + 1:
        raise DomainError(
            f"group [{start_age}, {start_age + width}) surviving {span} years "
            f"leaves the axis 0..{omega}"
        )
    survived = _survive(pop.array, survival.array, span) if span else pop.array
    rows = [0, 1] if sex is None else [sex.row]
    return float(survived[rows, start_age + span : start_age + span + width].sum())


def project_population(
    pop: AgePyramid,
    survival: SurvivalSchedule,
    fert: FertilityConfig,
    horizon: int,
) -> ProjectionSeries:
    """Project ``horizon`` years forward, one year at a time.

    Each step survives all cohorts one year and fills age 0 of the next
    frame with that year's births split by sex. Infant deaths are not
    modelled inside the projection (newborns enter at their full birth
    count and first face mortality through s(0, 1) the following year).
    """
    if horizon < 0:
        raise DomainError(f"horizon must be >= 0, got {horizon}")
    counts = np.empty((horizon + 1, 2, pop.axis.n_ages))
    counts[0] = pop.array
    male, female = Sex.MALE.row, Sex.FEMALE.row
    frame = pop
    for k in range(1, horizon + 1):
        births = project_births(frame, survival, fert)
        counts[k] = survive_cohorts(frame, survival, 1).array
        counts[k, male, 0] = births.sex_count(Sex.MALE)
        counts[k, female, 0] = births.sex_count(Sex.FEMALE)
        frame = AgePyramid._over(pop.region, pop.time_label + k, pop.axis, counts[k])
    return ProjectionSeries(pop.region, pop.time_label, pop.axis, counts)


def deaths_by_age(pop: AgePyramid, survival: SurvivalSchedule) -> dict:
    """Expected deaths during one year as a (sex, age-at-start) mapping
    over the pyramid's nonzero cells."""
    _check_axes(pop, survival)
    deaths = death_counts(pop.array, survival.array)
    rows, ages = np.nonzero(pop.array)
    return {
        (SEX_ROWS[r], a): deaths[r, a].item() for r, a in zip(rows.tolist(), ages.tolist())
    }
