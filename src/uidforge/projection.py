"""Population projection: annual births, cohort survival and the
year-by-year projection loop.

Births in a year are

    B = sum over mother ages x = 15..49 of s(x, x+1) * P(x) * F(x) * K

with P(x) the female count at age x, F(x) the age-specific fertility
rate and K the eligible proportion; the survival factor applies to the
mothers before the rate does. Cohorts age through the difference
equation

    P[t+1](x+1) = P[t](x) * s(x, x+1).

The arithmetic runs on float64 arrays of shape ``(2, n_ages)`` (rows in
:data:`~uidforge.core.SEX_ROWS` order), the Leslie-matrix form of the
model: the one-year step is a shifted multiply with births written into
age 0, survival over a span is the left-to-right product of the one-year
factors, and deaths are ``P * (1 - s)``. Every caller goes through these
functions: :func:`project_population` steps each year with
:func:`project_births`, whose ``(2,)`` array of births by sex goes into
age 0, and :func:`survive_cohorts`, on pyramids whose counts read
straight from the array; the card ledger takes the deaths of all its
frames at once from :func:`deaths_by_age`.

The loop keeps calling the two public functions once a year, on a
dense pyramid built over that year's frame (``AgePyramid._dense``),
because the benchmark's tracer (``perfbench/spans.py``) wraps them at
this module's names to time the births and cohort-step layers, and its
nesting test needs those spans.
A projected year costs about 10 µs on a 2-vCPU Xeon with Python 3.11
and numpy 2.4 (births about 3 µs, the one-year step about 4 µs, the
year's frame and copies the rest), so a national pyramid at horizon 100
takes about 1 ms. A plain array loop over the frames, with no pyramid
and no public call per year, measured about 30% more national-demand
work per probe; it waits for a stage timer inside the package that can
replace the tracer's wrap points.
Cells are validated where data enters (the CSV loaders), not re-checked
here; a dense pyramid's shared all-present mask passes the
reproductive-age check at once, and any other mask is checked cell by
cell.
A :class:`ProjectionSeries` keeps all frames in one
``(horizon + 1, 2, n_ages)`` array and builds :class:`AgePyramid`
frames only when asked.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .core import (
    REPRODUCTIVE_AGE_MAX,
    REPRODUCTIVE_AGE_MIN,
    AgeAxis,
    AgePyramid,
    FertilityConfig,
    Sex,
    SurvivalSchedule,
    _all_present,
)
from .errors import DomainError

_BAND = slice(REPRODUCTIVE_AGE_MIN, REPRODUCTIVE_AGE_MAX + 1)
_BAND_AGES = REPRODUCTIVE_AGE_MAX + 1 - REPRODUCTIVE_AGE_MIN
_FEMALE = Sex.FEMALE.row


@dataclass(frozen=True, eq=False)
class ProjectionSeries:
    """Annual projection frames of the region whose code is ``region``;
    frame 0 holds the input pyramid's cells (missing cells as 0).
    ``counts[k]`` is frame k as a ``(2, n_ages)`` array."""

    region: str
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


def _whole(name: str, value) -> int:
    """``value`` as an int; a non-integer, numpy integers aside, is a
    DomainError."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def _check_reproductive_cells(pop: AgePyramid):
    present = pop.present
    if pop.axis.max_age >= REPRODUCTIVE_AGE_MAX and (
        present is _all_present(present.shape)
        or np.count_nonzero(present[_FEMALE, _BAND]) == _BAND_AGES
    ):
        return
    female = present[_FEMALE]
    # ages beyond a short axis are missing too
    band = range(REPRODUCTIVE_AGE_MIN, REPRODUCTIVE_AGE_MAX + 1)
    missing = [x for x in band if x >= len(female) or not female[x]]
    raise DomainError(f"pyramid lacks female counts at reproductive ages {missing}")


def deaths_by_age(counts: np.ndarray, survival: np.ndarray) -> np.ndarray:
    """Expected deaths during one year by sex and age at the start of the
    year, ``counts * (1 - survival)``, for counts of shape
    ``(..., 2, n_ages)`` and a ``(2, n_ages)`` survival array."""
    return counts * (1.0 - survival)


def _births(counts: np.ndarray, survival: np.ndarray, fert: FertilityConfig) -> np.ndarray:
    """:func:`project_births` from ``(2, n_ages)`` counts and survival;
    the terms are accumulated in age order, 15 first."""
    terms = survival[_FEMALE, _BAND] * counts[_FEMALE, _BAND]
    terms *= fert.band_rates
    terms *= fert.eligible_proportion
    total = np.add.accumulate(terms).item(-1)
    male = total * fert.male_share
    return np.array([total - male, male])


def _survive(counts: np.ndarray, survival: np.ndarray, span: int) -> np.ndarray:
    """Cohorts aged ``span`` years; the factor for age x is the
    left-to-right product s(x) * s(x+1) * ... * s(x+span-1). Over one
    year that is one allocation and one multiply."""
    factor = survival[..., :-span]
    for k in range(1, span):
        factor = factor * survival[..., k : k - span]
    out = np.zeros(counts.shape)
    np.multiply(counts[..., :-span], factor, out=out[..., span:])
    return out


def project_births(
    pop: AgePyramid, survival: SurvivalSchedule, fert: FertilityConfig
) -> np.ndarray:
    """Expected live births over one year from the female population, as
    a float64 ``(2,)`` array in :data:`~uidforge.core.SEX_ROWS` order (F,
    M): ``total * male_share`` are male and the rest female.

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
    span = _whole("span", span)
    if span < 1:
        raise DomainError(f"span must be >= 1, got {span}")
    if span > omega:
        raise DomainError(f"span {span} exceeds the age axis (max_age {omega})")
    out = _survive(pop.array, survival.array, span)
    return AgePyramid._dense(pop.region, pop.time_label + span, pop.axis, out)


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
    horizon = _whole("horizon", horizon)
    if horizon < 0:
        raise DomainError(f"horizon must be >= 0, got {horizon}")
    region, start, axis = pop.region, pop.time_label, pop.axis
    try:
        counts = np.empty((horizon + 1, 2, axis.n_ages))
    except ValueError:  # more bytes than one array can address
        raise DomainError(f"horizon {horizon} is too long for one array of frames") from None
    counts[0] = pop.array
    # a read-only view, so that a frame's Cells need not clear the flag
    frames = counts.view()
    frames.flags.writeable = False
    frame = pop
    for k in range(1, horizon + 1):
        births = project_births(frame, survival, fert)
        step = counts[k]
        step[...] = survive_cohorts(frame, survival, 1).array
        step[:, 0] = births
        frame = AgePyramid._dense(region, start + k, axis, frames[k])
    return ProjectionSeries(region, start, axis, counts)

