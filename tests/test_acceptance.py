"""Acceptance suite: one test per criterion, each at its stated
tolerance. A pass/fail line per criterion is printed by the conftest
report hook."""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from uidforge import (
    AgeAxis,
    FertilityConfig,
    IssuancePolicy,
    PriorSpec,
    Sex,
    StateFlows,
    StateRates,
    SurvivalSchedule,
    annual_card_requirement_series,
    apply_omission_adjustment,
    conjugate_posterior,
    counts_from_rates,
    dual_system_estimate,
    macro_net_card_change,
    macro_new_card_demand,
    metropolis_sample,
    micro_net_card_change,
    micro_new_card_demand,
    project_population,
    run_card_simulation,
    summarize_chain,
    survive_cohorts,
)
from uidforge.bayes import DemandObservation
from uidforge.csvio import emit_demand_csv, render_series_chart
from conftest import dense_pyramid
from oracles import bernoulli_cohort_survivors

GOLDEN = Path(__file__).parent / "data" / "golden_demand_3yr.csv"

INDIA = "IN"

# Census 2011 provisional aggregates: 1210M total, males:females 623:586
TOTAL_2011 = 1210e6
MALE_WEIGHT = 623.0
FEMALE_WEIGHT = 586.0


def stable_growth_inputs():
    """Constant-rates scenario whose population grows by a fixed factor
    per year: geometric age shape, full survival below the last age of
    life, and a flat fertility rate calibrated so births replace the
    top-age loss plus the target growth."""
    g = 1.123 ** 0.1
    axis = AgeAxis(100)
    shape = np.array([g ** (-x) for x in range(axis.n_ages)])
    shape /= shape.sum()

    female_share = FEMALE_WEIGHT / (MALE_WEIGHT + FEMALE_WEIGHT)
    male_share = MALE_WEIGHT / (MALE_WEIGHT + FEMALE_WEIGHT)
    female = {x: TOTAL_2011 * female_share * shape[x] for x in range(axis.n_ages)}
    male = {x: TOTAL_2011 * male_share * shape[x] for x in range(axis.n_ages)}
    pyramid = dense_pyramid(INDIA, 2011, axis, female=female, male=male)

    survival = SurvivalSchedule.flat(axis, 1.0)
    top_age_loss = shape[100]
    births_needed = (g - 1.0) + top_age_loss
    rate = births_needed / (female_share * shape[15:50].sum())
    fert = FertilityConfig.flat(
        rate, eligible_proportion=1.0, sex_ratio_at_birth=MALE_WEIGHT / FEMALE_WEIGHT
    )
    return pyramid, survival, fert


def test_criterion_01_decadal_growth_reproduction():
    pyramid, survival, fert = stable_growth_inputs()
    started = time.perf_counter()
    series = project_population(pyramid, survival, fert, 10)
    elapsed = time.perf_counter() - started

    projected_2021 = series.frame(10).total()
    target = 1210e6 * 1.123  # 1358.83M
    assert abs(projected_2021 - target) / target < 1e-3
    assert elapsed < 1.0


def test_criterion_02_infant_survival_policy_ratio():
    # power-of-two counts keep the 0.94 scaling exact in floating point
    axis = AgeAxis(100)
    pop = dense_pyramid(INDIA, 2011, axis, female={20: 1024.0})
    survival = SurvivalSchedule.flat(axis, 1.0)
    fert = FertilityConfig(
        {20: 0.5}, eligible_proportion=1.0, sex_ratio_at_birth=1.0, infant_mortality=60.0
    )
    at_birth = annual_card_requirement_series(
        pop, survival, fert, [], 1, IssuancePolicy.AT_BIRTH
    )
    at_age_one = annual_card_requirement_series(
        pop, survival, fert, [], 1, IssuancePolicy.AT_AGE_ONE
    )
    factor = 1.0 - 60.0 / 1000.0
    assert at_age_one.rows[0].new_cards_male == factor * at_birth.rows[0].new_cards_male
    assert at_age_one.rows[0].new_cards_female == factor * at_birth.rows[0].new_cards_female
    assert at_age_one.rows[0].new_cards_total == factor * at_birth.rows[0].new_cards_total


def test_criterion_03_conservation_over_fifty_years():
    axis = AgeAxis(100)
    pyramid = dense_pyramid(
        INDIA,
        2011,
        axis,
        female={a: 1e5 + 7 * a for a in range(0, 46)},
        male={a: 1.1e5 + 5 * a for a in range(0, 46)},
    )
    survival = SurvivalSchedule.flat(axis, 1.0)
    fert = FertilityConfig({}, 1.0, 1.05)
    series = project_population(pyramid, survival, fert, 50)
    base = pyramid.total()
    for frame in series.frames:
        assert abs(frame.total() - base) / base < 1e-9


def test_criterion_04_microsimulation_oracle():
    axis = AgeAxis(100)
    pop = dense_pyramid(INDIA, 0, axis, female={30: 10_000.0})
    survival = SurvivalSchedule.flat(axis, 0.95)
    expected = survive_cohorts(pop, survival, 10).count(Sex.FEMALE, 40)
    assert expected == pytest.approx(10_000.0 * 0.95**10, rel=1e-12)

    started = time.perf_counter()
    reps = bernoulli_cohort_survivors(10_000, [0.95] * 10, seed=190411, replications=200)
    elapsed = time.perf_counter() - started
    se = reps.std(ddof=1) / math.sqrt(len(reps))
    assert abs(reps.mean() - expected) <= 3.0 * se
    assert elapsed < 5.0


def test_criterion_05_macro_micro_agreement():
    rng = np.random.default_rng(20110401)
    for _ in range(100):
        n_states = int(rng.integers(1, 9))
        rates = []
        for i in range(n_states):
            b, d, m, e = (float(x) for x in rng.uniform(0.0, 0.05, size=4))
            rates.append(StateRates(f"S{i}", float(rng.uniform(1e4, 1e7)), b, d, m, e))
        total_in = sum(f.in_rate * f.population for f in rates)
        total_out = sum(f.out_rate * f.population for f in rates)
        if total_out > 0:
            scale = total_in / total_out
            rates = [
                StateRates(
                    f.state, f.population, f.birth_rate, f.death_rate,
                    f.in_rate, f.out_rate * scale,
                )
                for f in rates
            ]
        counts = [counts_from_rates(f) for f in rates]
        assert math.isclose(
            micro_net_card_change(counts), macro_net_card_change(rates),
            rel_tol=1e-9, abs_tol=1e-9,
        )
        assert math.isclose(
            micro_new_card_demand(counts), macro_new_card_demand(rates),
            rel_tol=1e-9, abs_tol=1e-9,
        )


def test_criterion_06_dual_system_and_omission_inversion():
    assert dual_system_estimate(900, 800, 720) == 1000.0

    axis = AgeAxis(10)
    pyramid = dense_pyramid(INDIA, 2011, axis, female={5: 98765.4321}, male={7: 1234.5})
    base = pyramid.total()
    for rate in range(1, 1000):
        adjusted = apply_omission_adjustment(pyramid, float(rate))
        back = adjusted.total() * (1.0 - rate / 1000.0)
        assert abs(back - base) / base < 1e-9


def test_criterion_07_mcmc_vs_conjugate_oracle():
    prior = PriorSpec(1.0, 1.0)
    data = [DemandObservation(2012, 4, 1.0), DemandObservation(2013, 6, 1.0)]
    shape, rate = conjugate_posterior(data, prior)
    assert (shape, rate) == (11.0, 3.0)

    started = time.perf_counter()
    chain = metropolis_sample(data, prior, 100_000, seed=7, proposal_scale=0.5)
    elapsed = time.perf_counter() - started
    mean = summarize_chain(chain).mean
    assert abs(mean - shape / rate) / (shape / rate) < 0.01
    assert elapsed < 10.0

    rerun = metropolis_sample(data, prior, 100_000, seed=7, proposal_scale=0.5)
    assert np.array_equal(chain.samples, rerun.samples)


def national_demand_inputs():
    axis = AgeAxis(100)
    shape = np.array([1.01 ** (-x) for x in range(axis.n_ages)])
    shape /= shape.sum()
    female_share = FEMALE_WEIGHT / (MALE_WEIGHT + FEMALE_WEIGHT)
    female = {x: TOTAL_2011 * female_share * shape[x] for x in range(axis.n_ages)}
    male = {x: TOTAL_2011 * (1 - female_share) * shape[x] for x in range(axis.n_ages)}
    pyramid = dense_pyramid(INDIA, 2011, axis, female=female, male=male)
    survival = SurvivalSchedule.flat(axis, 0.988, 0.992)
    fert = FertilityConfig.flat(
        0.09, eligible_proportion=1.0, sex_ratio_at_birth=MALE_WEIGHT / FEMALE_WEIGHT
    )
    flows = [
        StateFlows(
            "ALL",
            births=0.0, deaths=0.0,
            interstate_in=2e5, interstate_out=2e5,
            immigration=1e5, emigration=5e4,
        )
    ]
    return pyramid, survival, fert, flows


def test_criterion_08_demand_series_properties(tmp_path):
    pyramid, survival, fert, flows = national_demand_inputs()
    series = annual_card_requirement_series(pyramid, survival, fert, flows, 10)
    for row in series.rows:
        assert row.new_cards_male > 0
        assert row.new_cards_female > 0
        assert row.returned_cards > 0

    # isolate the birth-driven component: number-and-card-at-birth
    # policy with no migration leaves only births in the rows
    births_only = annual_card_requirement_series(
        pyramid, survival, fert, [], 10, IssuancePolicy.NUMBER_AND_CARD_AT_BIRTH
    )
    ratio = fert.sex_ratio_at_birth
    for row in births_only.rows:
        assert row.new_cards_male / row.new_cards_female == pytest.approx(ratio, rel=1e-9)

    chart_a = tmp_path / "a.svg"
    chart_b = tmp_path / "b.svg"
    render_series_chart(series, chart_a)
    render_series_chart(series, chart_b)
    assert chart_a.read_bytes() == chart_b.read_bytes()


def toy_demand_inputs():
    axis = AgeAxis(100)
    pop = dense_pyramid(
        "TOY",
        2011,
        axis,
        female={14: 200.0, 20: 1000.0, 30: 500.0, 40: 300.0},
        male={14: 100.0, 20: 800.0, 50: 400.0},
    )
    survival = SurvivalSchedule.flat(axis, 0.96, 0.98)
    fert = FertilityConfig.flat(0.1, eligible_proportion=0.8, sex_ratio_at_birth=1.05)
    flows = [StateFlows("ST", 0.0, 0.0, 10.0, 10.0, 5.0, 3.0)]
    return pop, survival, fert, flows


def test_criterion_09_ledger_identity_twenty_years():
    pop, survival, fert, flows = toy_demand_inputs()
    _, ledgers = run_card_simulation(pop, survival, fert, flows, 20)
    assert len(ledgers) == 21
    for prev, cur in zip(ledgers, ledgers[1:]):
        assert (
            cur.active_cards
            == prev.active_cards + cur.issued_this_year - cur.returned_this_year
        )
        assert cur.child_links >= 0


def test_criterion_10_golden_demand_file(tmp_path):
    pop, survival, fert, flows = toy_demand_inputs()
    series = annual_card_requirement_series(pop, survival, fert, flows, 3)
    out = tmp_path / "demand.csv"
    emit_demand_csv(series, out)
    assert out.read_bytes() == GOLDEN.read_bytes()
