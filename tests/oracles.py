"""Independent test oracles kept deliberately naive."""

import numpy as np

from uidforge import DomainError, Sex, SurvivalSchedule


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
