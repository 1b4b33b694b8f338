"""Card-flow accounting: macro (rate x population) and micro (event
count) models of annual card change, the age-15 re-issuance procedure,
death-driven card returns, and the annual new-card requirement series.

Modeling note inherited from the source formulas: an interstate mover
counts as new-card demand in the receiving state (re-registration), so
interstate in-flows appear on the demand side and interstate out-flows
on the return side alongside international migration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Mapping, Sequence

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
from .projection import (
    BirthCount,
    apply_infant_survival,
    death_counts,
    project_population,
)

# The projection's pyramid-level functions stay importable from this
# module too: perfbench's traced runs wrap them here (spans.WRAP_POINTS).
from .projection import deaths_by_age, project_births, survive_cohorts  # noqa: F401

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


@dataclass(frozen=True)
class CardLedger:
    """Running card inventory for one state.

    ``active_cards`` is decremented as returns are processed during the
    year; ``issued_this_year`` accumulates separately and is folded into
    the inventory by :func:`finish_year`. ``child_links`` counts persons
    under 15 linked to a parent or guardian number.
    """

    state: RegionId
    year: int
    active_cards: int
    issued_this_year: int = 0
    returned_this_year: int = 0
    child_links: int = 0

    def __post_init__(self):
        for name in ("active_cards", "issued_this_year", "returned_this_year", "child_links"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise DomainError(f"CardLedger.{name} must be a non-negative integer, got {v!r}")


@dataclass(frozen=True)
class DemandRow:
    year: int
    new_cards_male: float
    new_cards_female: float
    returned_cards: float

    def __post_init__(self):
        for name in ("new_cards_male", "new_cards_female", "returned_cards"):
            require_finite_nonnegative(f"DemandRow.{name}", getattr(self, name))

    @property
    def new_cards_total(self) -> float:
        return self.new_cards_male + self.new_cards_female


@dataclass(frozen=True)
class DemandSeries:
    """Annual expected new-card and returned-card counts.

    Values are expected-value reals; they are rounded (half to even)
    only when written out.
    """

    start_year: int
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        for i, row in enumerate(self.rows):
            if row.year != self.start_year + i:
                raise DomainError(
                    f"rows must be consecutive years from {self.start_year}; "
                    f"row {i} has year {row.year}"
                )


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
    return int(round(x))


def _issue_age15_cards(new_cards: float, ledger: CardLedger) -> CardLedger:
    rounded = _round_half_even(new_cards)
    if ledger.child_links - rounded < 0:
        raise ConsistencyError(
            f"age-15 transition needs {rounded} child links, ledger has {ledger.child_links}"
        )
    return replace(
        ledger,
        child_links=ledger.child_links - rounded,
        issued_this_year=ledger.issued_this_year + rounded,
    )


def age15_transition(
    pop: AgePyramid, survival: SurvivalSchedule, ledger: CardLedger
) -> tuple[float, CardLedger]:
    """Convert this year's 14-to-15 survivors from child linkages into
    newly issued cards.

    Returns the expected number of new cards plus the updated ledger;
    the same people are never counted twice (their linkage is removed as
    the card is issued).
    """
    new_cards = sum(
        pop.count(sex, CARD_AGE - 1) * survival.prob(sex, CARD_AGE - 1) for sex in Sex
    )
    return new_cards, _issue_age15_cards(new_cards, ledger)


def _return_cards(returned: float, released: float, ledger: CardLedger) -> CardLedger:
    """Take ``returned`` physical cards out of the inventory and release
    ``released`` child links (both rounded half to even)."""
    returns = _round_half_even(returned)
    child_returns = _round_half_even(released)
    if ledger.active_cards - returns < 0:
        raise ConsistencyError(
            f"cannot return {returns} cards from an inventory of {ledger.active_cards}"
        )
    if ledger.child_links - child_returns < 0:
        raise ConsistencyError(
            f"cannot release {child_returns} child links, ledger has {ledger.child_links}"
        )
    return replace(
        ledger,
        active_cards=ledger.active_cards - returns,
        returned_this_year=ledger.returned_this_year + returns,
        child_links=ledger.child_links - child_returns,
    )


def process_card_returns(
    deaths_by_age: Mapping,
    emigrants: float,
    ledger: CardLedger,
    children_hold_cards: bool = False,
) -> CardLedger:
    """Apply one year of card returns to the ledger.

    Deaths at ages 15 and up and emigrants return physical cards
    (active inventory down, returns up). Deaths below 15 release the
    parent linkage instead; no physical card moves — unless
    ``children_hold_cards`` (the card-at-birth policy), in which case
    every death returns a card.
    """
    if emigrants < 0:
        raise DomainError("emigrant count must be >= 0")
    adult = 0.0
    child = 0.0
    for (sex, age), n in deaths_by_age.items():
        if n < 0:
            raise DomainError(f"death count for ({sex.value}, {age}) must be >= 0")
        if age >= CARD_AGE or children_hold_cards:
            adult += n
        else:
            child += n
    return _return_cards(adult + emigrants, child, ledger)


def start_year(ledger: CardLedger) -> CardLedger:
    """Open a new accounting year with fresh counters."""
    return replace(
        ledger, year=ledger.year + 1, issued_this_year=0, returned_this_year=0
    )


def finish_year(ledger: CardLedger) -> CardLedger:
    """Fold the year's issuance into the active inventory."""
    return replace(ledger, active_cards=ledger.active_cards + ledger.issued_this_year)


def _counted_births(births: BirthCount, fert: FertilityConfig, policy: IssuancePolicy) -> BirthCount:
    if policy is IssuancePolicy.AT_AGE_ONE:
        return apply_infant_survival(births, fert)
    return births


def run_card_simulation(
    pop: AgePyramid,
    survival: SurvivalSchedule,
    fert: FertilityConfig,
    flows: Sequence[StateFlows],
    horizon: int,
    policy: IssuancePolicy = IssuancePolicy.AT_BIRTH,
    ledger: CardLedger | None = None,
) -> tuple[DemandSeries, list[CardLedger]]:
    """Project the population ``horizon`` years and account each year's
    card demand, returns and ledger state.

    The frames come from :func:`project_population`. Per year, new cards
    are the policy-counted births plus (except under
    NUMBER_AND_CARD_AT_BIRTH) the age-15 transitions, plus migration
    in-flows split evenly between the sexes; returns are the deaths of
    card holders (ages 15+, or every age under NUMBER_AND_CARD_AT_BIRTH)
    plus migration out-flows, the same figure the ledger returns. The
    ledger list starts with the initial ledger followed by one
    end-of-year snapshot per year, so
    active(y) = active(y-1) + issued(y) - returned(y) holds exactly.
    """
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    cards_at_birth = policy is IssuancePolicy.NUMBER_AND_CARD_AT_BIRTH
    if ledger is None:
        under15 = sum(pop.count(sex, a) for sex in Sex for a in range(CARD_AGE))
        over15 = sum(
            pop.count(sex, a) for sex in Sex for a in range(CARD_AGE, pop.axis.max_age + 1)
        )
        if cards_at_birth:
            # everyone already holds a card; nothing rides on a linkage
            ledger = CardLedger(
                pop.region, pop.time_label, active_cards=_round_half_even(under15 + over15)
            )
        else:
            ledger = CardLedger(
                pop.region,
                pop.time_label,
                active_cards=_round_half_even(over15),
                child_links=_round_half_even(under15),
            )
    inflow = sum(f.interstate_in + f.immigration for f in flows)
    outflow = sum(f.interstate_out + f.emigration for f in flows)

    series = project_population(pop, survival, fert, horizon)
    s = survival.array
    frames, newborn = series.counts[:-1], series.counts[1:, :, 0]
    deaths = death_counts(frames, s)
    if cards_at_birth:
        returned = deaths.sum(axis=(1, 2)) + outflow
        released = np.zeros(horizon)
        age15 = np.zeros((horizon, 2))
    else:
        returned = deaths[..., CARD_AGE:].sum(axis=(1, 2)) + outflow
        released = deaths[..., :CARD_AGE].sum(axis=(1, 2))
        age15 = frames[..., CARD_AGE - 1] * s[:, CARD_AGE - 1]

    male, female = Sex.MALE.row, Sex.FEMALE.row
    rows = []
    ledgers = [ledger]
    years = zip(newborn.tolist(), age15.tolist(), returned.tolist(), released.tolist())
    for k, (born, at15, out_cards, out_links) in enumerate(years):
        year_ledger = start_year(ledgers[-1])
        births = BirthCount(
            born[male] + born[female], {Sex.MALE: born[male], Sex.FEMALE: born[female]}
        )
        counted = _counted_births(births, fert, policy)
        year_ledger = _issue_age15_cards(at15[male] + at15[female], year_ledger)
        year_ledger = _return_cards(out_cards, out_links, year_ledger)

        new_male = counted.sex_count(Sex.MALE) + at15[male] + inflow / 2.0
        new_female = counted.sex_count(Sex.FEMALE) + at15[female] + inflow / 2.0
        rows.append(
            DemandRow(
                year=series.start + k + 1,
                new_cards_male=new_male,
                new_cards_female=new_female,
                returned_cards=out_cards,
            )
        )

        issued_birth_mig = _round_half_even(counted.sex_count(Sex.MALE) + inflow / 2.0) + _round_half_even(
            counted.sex_count(Sex.FEMALE) + inflow / 2.0
        )
        new_links = 0 if cards_at_birth else _round_half_even(counted.total)
        year_ledger = replace(
            year_ledger,
            issued_this_year=year_ledger.issued_this_year + issued_birth_mig,
            child_links=year_ledger.child_links + new_links,
        )
        ledgers.append(finish_year(year_ledger))

    return DemandSeries(pop.time_label + 1, tuple(rows)), ledgers


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
    series, _ = run_card_simulation(pop, survival, fert, flows, horizon, policy)
    return series
