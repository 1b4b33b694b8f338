"""Independent test oracles kept deliberately naive."""

import math

import numpy as np

from uidforge import (
    CardLedger,
    DemandRow,
    DomainError,
    IssuancePolicy,
    Sex,
    SurvivalSchedule,
    age15_transition,
    deaths_by_age,
    process_card_returns,
    project_population,
)
from uidforge.ledger import CARD_AGE


def bernoulli_cohort_survivors(n_persons, survival_probs, seed, replications):
    """Per-person Bernoulli microsimulation of one cohort.

    Each person independently draws survival for every year of the
    span; returns the array of survivor counts, one per replication.
    """
    rng = np.random.default_rng(seed)
    out = np.empty(replications, dtype=np.int64)
    for rep in range(replications):
        alive = n_persons
        for p in survival_probs:
            alive = int(np.count_nonzero(rng.random(alive) < p))
        out[rep] = alive
    return out


def brute_force_births(pop, survival, fert):
    """Births by looping over every age of the axis, not just 15..49."""
    total = 0.0
    for age in pop.axis.ages():
        total += (
            survival.array.item(Sex.FEMALE.row, age)
            * pop.count(Sex.FEMALE, age)
            * fert.rate(age)
            * fert.eligible_proportion
        )
    return total


def multi_year_survival(
    schedule: SurvivalSchedule, sex: Sex, age: int, span: int
) -> float:
    """Probability that a person of ``age`` survives ``span`` further years.

    Composed as the product of one-year factors
    s(age, age+1) * s(age+1, age+2) * ... * s(age+span-1, age+span).
    span = 0 is the empty product, 1.0.
    """
    axis = schedule.axis
    if span < 0:
        raise DomainError(f"span must be >= 0, got {span}")
    if not axis.contains(age):
        raise DomainError(f"age {age} outside axis 0..{axis.max_age}")
    if age + span > axis.max_age + 1:
        raise DomainError(
            f"age {age} + span {span} reaches past the last age of life ({axis.max_age})"
        )
    p = 1.0
    for s in schedule.array[sex.row, age : age + span].tolist():
        p *= s
    return p


def _rounded(x: float) -> int:
    if not math.isfinite(x):
        raise DomainError(f"card count {x!r} is not finite")
    return round(x)


def card_ledger_oracle(pop, survival, fert, flows, horizon, policy):
    """The card simulation one year at a time on Python integers,
    through the scalar steps ``age15_transition`` and
    ``process_card_returns``. Returns the demand rows and the ledger
    snapshots, the starting ledger first."""
    cards_at_birth = policy is IssuancePolicy.NUMBER_AND_CARD_AT_BIRTH
    male, female = Sex.MALE.row, Sex.FEMALE.row
    cells = pop.array
    under15 = sum(cells[male, :CARD_AGE].tolist() + cells[female, :CARD_AGE].tolist())
    over15 = sum(cells[male, CARD_AGE:].tolist() + cells[female, CARD_AGE:].tolist())
    if cards_at_birth:
        under15, over15 = 0.0, under15 + over15
    active, links = _rounded(over15), _rounded(under15)
    ledgers = [CardLedger(pop.region, pop.time_label, active, child_links=links)]
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
        age15 = frames[..., CARD_AGE - 1] * s[:, CARD_AGE - 1]
    if policy is IssuancePolicy.AT_AGE_ONE:
        newborn = newborn * fert.infant_survival

    rows = []
    years = range(pop.time_label + 1, pop.time_label + horizon + 1)
    steps = zip(years, newborn.tolist(), age15.tolist(), returned.tolist(), released.tolist())
    for year, born, at15, out_cards, out_links in steps:
        issued = age15_transition(at15[male] + at15[female], links)
        links -= issued
        returns, links_released = process_card_returns(out_cards, out_links, active, links)
        active -= returns
        links -= links_released
        rows.append(
            DemandRow(
                year,
                born[male] + at15[male] + half_inflow,
                born[female] + at15[female] + half_inflow,
                out_cards,
            )
        )
        issued += _rounded(born[male] + half_inflow)
        issued += _rounded(born[female] + half_inflow)
        if not cards_at_birth:
            links += _rounded(born[male] + born[female])
        active += issued
        ledgers.append(CardLedger(pop.region, year, active, issued, returns, links))
    return rows, ledgers
