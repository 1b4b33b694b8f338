"""Card-flow accounting: macro (rate x population) and micro (event
count) models of annual card change, and the card simulation behind the
annual new-card requirement series. The simulation books every year of
one state's projection at once: each year's flows are rounded half to
even into int64, the card and link stocks are their running totals, and
a count, a running total or a year label past the int64 range is a
DomainError, never a wrapped integer. It hands back its tables as
arrays: the demand rows (``DemandSeries.rows``) and the ledger snapshots
are record arrays with one record per year, fields read by name.
:func:`age15_transition` (child links become cards) and
:func:`process_card_returns` (cards returned, links released) are one
year of it on Python ints. They stay public: the benchmark's tracer
wraps them by name, and the first year that overdraws the ledger is
replayed through them, so it fails with their ConsistencyError.

Modeling note inherited from the source formulas: an interstate mover
counts as new-card demand in the receiving state (re-registration), so
interstate in-flows appear on the demand side and interstate out-flows
on the return side alongside international migration.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from enum import Enum
from typing import Sequence

import numpy as np

from .core import (
    AgePyramid,
    FertilityConfig,
    RegionId,
    Sex,
    SurvivalSchedule,
    require_finite_nonnegative,
)
from .errors import ConsistencyError, DomainError
from .projection import deaths_by_age, project_population

# Not called here: perfbench's traced runs wrap these two at this
# module's names (spans.WRAP_POINTS), so they stay importable from it.
from .projection import project_births, survive_cohorts  # noqa: F401

#: Age at which a child linkage becomes a card of its own.
CARD_AGE = 15


class IssuancePolicy(Enum):
    """When a person first generates physical-card demand.

    AT_BIRTH: an identity number is issued at birth and linked to a
    parent or guardian; the physical card follows at age 15.
    AT_AGE_ONE: as AT_BIRTH, but numbers are issued only to children who
    complete their first year (infant survival applies).
    NUMBER_AND_CARD_AT_BIRTH: number and physical card both at birth, so
    the age-15 step issues no new card.
    """

    AT_BIRTH = "at-birth"
    AT_AGE_ONE = "at-age-one"
    NUMBER_AND_CARD_AT_BIRTH = "full"


@dataclass(frozen=True)
class StateFlows:
    """Annual event counts for one state: the micro model's input and
    the ledger's. Counts may be expected values (reals)."""

    state: RegionId
    births: float
    deaths: float
    interstate_in: float
    interstate_out: float
    immigration: float
    emigration: float

    def __post_init__(self):
        _require_finite_nonnegative_fields(self)


@dataclass(frozen=True)
class StateRates:
    """Annual per-person rates for one state against its population
    base: the macro model's input. :func:`counts_from_rates` turns one
    into the :class:`StateFlows` it implies."""

    state: RegionId
    population: float
    birth_rate: float
    death_rate: float
    in_rate: float
    out_rate: float

    def __post_init__(self):
        _require_finite_nonnegative_fields(self)


def _require_finite_nonnegative_fields(record):
    """Check every field after the leading ``state``."""
    owner = type(record).__name__
    for f in fields(record)[1:]:
        require_finite_nonnegative(f"{owner}.{f.name}", getattr(record, f.name))


_SNAPSHOT_FIELDS = "year,active_cards,issued_this_year,returned_this_year,child_links"
_ROW_FIELDS = "year,new_cards_male,new_cards_female,returned_cards,new_cards_total"
_INT64 = np.iinfo(np.int64)


def _check_year(year: int):
    if not _INT64.min <= year <= _INT64.max:
        raise DomainError(f"year {year} lies outside the int64 range {_INT64.min}..{_INT64.max}")


def _year_labels(years) -> np.ndarray:
    """``years`` as a 1-D int64 array of consecutive year labels; a label
    that is not an integer or lies outside int64 is a DomainError."""
    labels = np.asarray(years)
    if labels.ndim != 1:
        raise DomainError(f"years must be consecutive, got {labels.tolist()}")
    if labels.dtype.kind != "i":  # Python ints past int64 arrive as objects
        for year in labels.tolist():
            if not isinstance(year, numbers.Integral):
                raise DomainError(f"years must be integers, got {labels.tolist()}")
            _check_year(year)
    labels = labels.astype(np.int64, copy=False)
    # a difference of 1 can wrap around from the top of int64 to the bottom
    if ((np.diff(labels) != 1) | (labels[1:] < labels[:-1])).any():
        raise DomainError(f"years must be consecutive, got {labels.tolist()}")
    return labels


@dataclass(frozen=True, eq=False)
class DemandSeries:
    """Annual expected new-card and returned-card counts: one entry per
    year in each of four 1-D arrays of equal length.

    Values are expected-value reals; they are rounded (half to even)
    only when written out.
    """

    years: np.ndarray
    new_male: np.ndarray
    new_female: np.ndarray
    returned: np.ndarray

    def __post_init__(self):
        years = _year_labels(self.years)
        object.__setattr__(self, "years", years)
        for name in ("new_male", "new_female", "returned"):
            values = np.asarray(getattr(self, name), dtype=float)
            if values.shape != years.shape or not (np.isfinite(values) & (values >= 0)).all():
                raise DomainError(
                    f"DemandSeries.{name} must be finite and >= 0 in each of "
                    f"{years.size} years, got {values.tolist()}"
                )
            object.__setattr__(self, name, values)

    @property
    def rows(self) -> np.recarray:
        """The series as a record array, one record per year with the
        fields ``year``, ``new_cards_male``, ``new_cards_female``,
        ``returned_cards`` and ``new_cards_total`` (male plus female)."""
        total = self.new_male + self.new_female
        columns = (self.years, self.new_male, self.new_female, self.returned, total)
        return np.rec.fromarrays(columns, names=_ROW_FIELDS)


def macro_net_card_change(flows: Sequence[StateRates]) -> float:
    """Net change in active cards over the next year under the macro
    model: sum over states of (b - d + m - e) * population."""
    return sum(
        (f.birth_rate - f.death_rate + f.in_rate - f.out_rate) * f.population
        for f in flows
    )


def macro_new_card_demand(flows: Sequence[StateRates]) -> float:
    """New cards needed over the next year under the macro model: only
    births and in-flows create demand, sum of (b + m) * population."""
    return sum((f.birth_rate + f.in_rate) * f.population for f in flows)


def check_interstate_closure(flows: Sequence[StateFlows]):
    """Every interstate leaver must arrive somewhere in the state set.

    Counts may be expected values (reals), so the totals are compared
    within 1e-9 rather than bit-exactly.
    """
    total_out = sum(f.interstate_out for f in flows)
    total_in = sum(f.interstate_in for f in flows)
    if not math.isclose(total_out, total_in, rel_tol=1e-9, abs_tol=1e-9):
        raise ConsistencyError(
            f"interstate flows do not close: total out {total_out} != total in {total_in}"
        )


def micro_state_contribution(flow: StateFlows) -> float:
    """One state's signed contribution to the micro net card change."""
    return (
        flow.births
        - flow.deaths
        + flow.interstate_in
        - flow.interstate_out
        + flow.immigration
        - flow.emigration
    )


def micro_net_card_change(flows: Sequence[StateFlows]) -> float:
    """Net change in cards from event counts: births - deaths +
    interstate in - interstate out + immigration - emigration, summed
    over states. Rejects flow sets whose interstate moves do not close."""
    check_interstate_closure(flows)
    return sum(micro_state_contribution(f) for f in flows)


def micro_new_card_demand(flows: Sequence[StateFlows]) -> float:
    """New cards to issue from event counts: births + interstate in +
    immigration. Deaths and out-flows never enter."""
    return sum(f.births + f.interstate_in + f.immigration for f in flows)


def counts_from_rates(flow: StateRates) -> StateFlows:
    """Expected event counts implied by a rate record
    (count = rate x population, unrounded). In-rate maps to interstate
    in, out-rate to interstate out; international flows are zero."""
    return StateFlows(
        flow.state,
        births=flow.birth_rate * flow.population,
        deaths=flow.death_rate * flow.population,
        interstate_in=flow.in_rate * flow.population,
        interstate_out=flow.out_rate * flow.population,
        immigration=0.0,
        emigration=0.0,
    )


def _round_half_even(x: float) -> int:
    if not math.isfinite(x):
        raise DomainError(f"card count {x!r} is not finite")
    return int(round(x))


def age15_transition(new_cards: float, child_links: int) -> int:
    """Cards issued at 15 this year: the 14-year-olds' survivors
    ``new_cards``, rounded half to even. Each card uses up the child
    link it replaces, so the ledger must hold that many links."""
    rounded = _round_half_even(new_cards)
    if child_links - rounded < 0:
        raise ConsistencyError(
            f"age-15 transition needs {rounded} child links, ledger has {child_links}"
        )
    return rounded


def process_card_returns(
    returned: float, released: float, active_cards: int, child_links: int
) -> tuple[int, int]:
    """One year's card returns: the physical cards ``returned`` (deaths
    of card holders plus out-migrants) and the child links ``released``
    (deaths of children who hold none), both rounded half to even. The
    ledger must hold them."""
    if returned < 0 or released < 0:
        raise DomainError(f"returns must be >= 0, got {returned!r} cards, {released!r} links")
    returns = _round_half_even(returned)
    child_returns = _round_half_even(released)
    if active_cards - returns < 0:
        raise ConsistencyError(
            f"cannot return {returns} cards from an inventory of {active_cards}"
        )
    if child_links - child_returns < 0:
        raise ConsistencyError(
            f"cannot release {child_returns} child links, ledger has {child_links}"
        )
    return returns, child_returns


def _running_totals(start: float, *flows: np.ndarray) -> np.ndarray:
    """``start`` and then the total at the end of each year, adding the
    year's ``flows`` in turn, every term rounded half to even into int64.
    Each term must lie in 0 .. 2**63 - 1; then a total past the int64
    range shows as a negative partial sum."""
    terms = np.rint(np.concatenate(([start], np.column_stack(flows).ravel())))
    bad = (terms < 0) | (terms >= 2.0**63)
    if bad.any():
        raise DomainError(f"card count {terms[bad].item(0)!r} is outside the int64 range")
    totals = terms.astype(np.int64).cumsum()
    if totals.min() < 0:
        raise DomainError("card totals over the horizon exceed the int64 range")
    return totals[:: len(flows)]


def _simulate(pop, survival, fert, flows, horizon, policy):
    """The demand series and the ledger as the int64 arrays ``(years,
    active, issued, returned, links)``, entry 0 the start and entry k the
    end of year k."""
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    for year in (pop.time_label, pop.time_label + horizon):
        _check_year(year)
    years = np.arange(pop.time_label, pop.time_label + horizon + 1, dtype=np.int64)
    cards_at_birth = policy is IssuancePolicy.NUMBER_AND_CARD_AT_BIRTH
    male, female = Sex.MALE.row, Sex.FEMALE.row
    # male ages first, then female ages: the order of iterating Sex
    cells = pop.array
    under15 = sum(cells[male, :CARD_AGE].tolist() + cells[female, :CARD_AGE].tolist())
    over15 = sum(cells[male, CARD_AGE:].tolist() + cells[female, CARD_AGE:].tolist())
    if cards_at_birth:
        # everyone already holds a card; nothing rides on a linkage
        under15, over15 = 0.0, under15 + over15
    half_inflow = sum(f.interstate_in + f.immigration for f in flows) / 2.0
    outflow = sum(f.interstate_out + f.emigration for f in flows)

    series = project_population(pop, survival, fert, horizon)
    s = survival.array
    frames, newborn = series.counts[:-1], series.counts[1:, :, 0]
    deaths = deaths_by_age(frames, s)
    if cards_at_birth:
        returned = deaths.sum(axis=(1, 2)) + outflow
        released = np.zeros(horizon)
        age15 = np.zeros((horizon, 2))
    else:
        returned = deaths[..., CARD_AGE:].sum(axis=(1, 2)) + outflow
        released = deaths[..., :CARD_AGE].sum(axis=(1, 2))
        age15 = series.counts[1:, :, CARD_AGE]  # the survivors of age 14
    if policy is IssuancePolicy.AT_AGE_ONE:
        newborn = newborn * fert.infant_survival
    at15 = age15[:, male] + age15[:, female]
    born = newborn + half_inflow
    linked = np.zeros(horizon) if cards_at_birth else newborn[:, male] + newborn[:, female]
    for v in (np.array([over15, under15]), at15, born, returned, released, linked):
        if not np.isfinite(v).all():
            raise DomainError(f"card count {v[~np.isfinite(v)].item(0)!r} is not finite")

    # a year's age-15 cards use up links, then cards are returned and
    # links released, then births and in-migrants add cards and links
    cards_in = _running_totals(over15, at15, born[:, male], born[:, female])
    cards_out = _running_totals(0.0, returned)
    links_in = _running_totals(under15, linked)
    links_out = _running_totals(0.0, at15, released)
    short = (cards_in[:-1] < cards_out[1:]) | (links_in[:-1] < links_out[1:])
    if short.any():
        # the public steps raise the first short year's error
        k = int(short.argmax())
        links = int(links_in[k] - links_out[k])
        links -= age15_transition(at15.item(k), links)
        active = int(cards_in[k] - cards_out[k])
        process_card_returns(returned.item(k), released.item(k), active, links)

    new = newborn + age15 + half_inflow
    demand = DemandSeries(years[1:], new[:, male], new[:, female], returned)
    issued, returns = np.diff(cards_in, prepend=cards_in[0]), np.diff(cards_out, prepend=0)
    return demand, (years, cards_in - cards_out, issued, returns, links_in - links_out)


def run_card_simulation(
    pop: AgePyramid,
    survival: SurvivalSchedule,
    fert: FertilityConfig,
    flows: Sequence[StateFlows],
    horizon: int,
    policy: IssuancePolicy = IssuancePolicy.AT_BIRTH,
) -> tuple[DemandSeries, np.recarray]:
    """Project the population ``horizon`` years and account each year's
    card demand, returns and ledger state.

    The frames come from :func:`project_population`. Per year, new cards
    are the policy-counted births (under AT_AGE_ONE, each sex's births
    times the infant survival factor) plus (except under
    NUMBER_AND_CARD_AT_BIRTH) the age-15 transitions, plus migration
    in-flows split evenly between the sexes; returns are the deaths of
    card holders (ages 15+, or every age under NUMBER_AND_CARD_AT_BIRTH)
    plus migration out-flows, the same figure the ledger returns.

    The snapshots are a ``(horizon + 1,)`` record array: the initial
    ledger, then the ledger at the end of each year. Its int64 fields
    are ``year``, ``active_cards``, ``issued_this_year``,
    ``returned_this_year`` (the year's rounded flows; 0 at the start)
    and ``child_links`` (persons under 15 linked to a parent or guardian
    number), so active(y) = active(y-1) + issued(y) - returned(y) holds
    exactly.
    """
    series, ledger = _simulate(pop, survival, fert, flows, horizon, policy)
    return series, np.rec.fromarrays(ledger, names=_SNAPSHOT_FIELDS)


def annual_card_requirement_series(
    pop: AgePyramid,
    survival: SurvivalSchedule,
    fert: FertilityConfig,
    flows: Sequence[StateFlows],
    horizon: int,
    policy: IssuancePolicy = IssuancePolicy.AT_BIRTH,
) -> DemandSeries:
    """Annual numbers of cards newly required by sex, plus returns, for
    ``horizon`` years after the pyramid's reference year."""
    return _simulate(pop, survival, fert, flows, horizon, policy)[0]
