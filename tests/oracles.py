"""Independent test oracles kept deliberately naive."""

import math

import numpy as np

from uidforge import (
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


def projection_oracle(pop, survival, fert, horizon):
    """The projection one year at a time as a plain array loop: frame 0
    is the pyramid's array; each year's births are the sum, over mother
    ages 15..49 in age order, of ``s[F, x] * P[F, x] * F(x) * K``
    multiplied left to right, split ``total * r / (1 + r)`` male and the
    rest female; the other cells are last year's, shifted one age up and
    times the survival of the age they left. Returns the frames as a
    ``(horizon + 1, 2, n_ages)`` array."""
    female, male = Sex.FEMALE.row, Sex.MALE.row
    s, k = survival.array, fert.eligible_proportion
    ratio = fert.sex_ratio_at_birth
    frames = [np.array(pop.array)]
    for _ in range(horizon):
        last = frames[-1]
        total = 0.0
        for x in range(15, 50):
            total += s.item(female, x) * last.item(female, x) * fert.rate(x) * k
        new = np.zeros_like(last)
        new[:, 1:] = last[:, :-1] * s[:, :-1]
        new[male, 0] = total * (ratio / (1.0 + ratio))
        new[female, 0] = total - new[male, 0]
        frames.append(new)
    return np.array(frames)


def _rounded(x: float) -> int:
    if not math.isfinite(x):
        raise DomainError(f"card count {x!r} is not finite")
    return round(x)


def card_ledger_oracle(pop, survival, fert, flows, horizon, policy):
    """The card simulation one year at a time on Python integers,
    through the scalar steps ``age15_transition`` and
    ``process_card_returns``. Returns the demand rows ``(year, male,
    female, returned, total)`` and the ledger snapshots ``(year, active,
    issued, returned, links)`` as lists of tuples, the starting ledger
    first."""
    cards_at_birth = policy is IssuancePolicy.NUMBER_AND_CARD_AT_BIRTH
    male, female = Sex.MALE.row, Sex.FEMALE.row
    cells = pop.array
    under15 = sum(cells[male, :CARD_AGE].tolist() + cells[female, :CARD_AGE].tolist())
    over15 = sum(cells[male, CARD_AGE:].tolist() + cells[female, CARD_AGE:].tolist())
    if cards_at_birth:
        under15, over15 = 0.0, under15 + over15
    active, links = _rounded(over15), _rounded(under15)
    ledgers = [(pop.time_label, active, 0, 0, links)]
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
        new_male = born[male] + at15[male] + half_inflow
        new_female = born[female] + at15[female] + half_inflow
        rows.append((year, new_male, new_female, out_cards, new_male + new_female))
        issued += _rounded(born[male] + half_inflow)
        issued += _rounded(born[female] + half_inflow)
        if not cards_at_birth:
            links += _rounded(born[male] + born[female])
        active += issued
        ledgers.append((year, active, issued, returns, links))
    return rows, ledgers
