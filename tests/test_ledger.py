import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uidforge import (
    AgeAxis,
    AgePyramid,
    ConsistencyError,
    DemandSeries,
    DomainError,
    FertilityConfig,
    IssuancePolicy,
    Sex,
    StateFlows,
    StateRates,
    SurvivalSchedule,
    age15_transition,
    annual_card_requirement_series,
    counts_from_rates,
    macro_net_card_change,
    macro_new_card_demand,
    micro_net_card_change,
    micro_new_card_demand,
    process_card_returns,
    project_population,
    run_card_simulation,
)
from uidforge.csvio import emit_demand_csv
from uidforge.ledger import micro_state_contribution
from conftest import dense_pyramid
from oracles import card_ledger_oracle
from test_acceptance import national_demand_inputs

DATA = Path(__file__).parent / "data"


def rate_flow(code, population, b, d, m, e):
    return StateRates(code, population, b, d, m, e)


def count_flow(code, n, d, m, e, g, f):
    return StateFlows(code, n, d, m, e, g, f)


class TestStateFlows:
    def test_rate_record_rejects_count_fields(self):
        with pytest.raises(TypeError):
            StateRates("ST", 1.0, 0.0, 0.0, 0.0, 0.0, births=5.0)

    def test_count_record_needs_all_counts(self):
        with pytest.raises(TypeError):
            StateFlows("ST", births=1.0, deaths=1.0)

    def test_negative_values_rejected(self):
        with pytest.raises(DomainError):
            rate_flow("A", 100.0, -0.01, 0.0, 0.0, 0.0)


class TestMacroModels:
    def test_symmetric_flows_cancel(self):
        flows = [
            rate_flow("A", 1e6, 0.02, 0.02, 0.003, 0.003),
            rate_flow("B", 5e5, 0.015, 0.015, 0.001, 0.001),
        ]
        assert macro_net_card_change(flows) == pytest.approx(0.0, abs=1e-9)

    def test_single_state_net(self):
        flows = [rate_flow("A", 1e6, 0.02, 0.008, 0.001, 0.001)]
        assert macro_net_card_change(flows) == pytest.approx(12000.0, rel=1e-12)

    def test_empty_list_is_zero(self):
        assert macro_net_card_change([]) == 0.0
        assert macro_new_card_demand([]) == 0.0

    def test_new_card_demand_two_states(self):
        flows = [
            rate_flow("A", 1e7, 0.02, 0.005, 0.001, 0.0),
            rate_flow("B", 5e6, 0.03, 0.011, 0.002, 0.004),
        ]
        demand = macro_new_card_demand(flows)
        assert demand == pytest.approx(370000.0, rel=1e-12)
        births_alone = sum(f.birth_rate * f.population for f in flows)
        assert demand >= births_alone

    def test_demand_without_migration_is_births(self):
        flows = [rate_flow("A", 2e6, 0.017, 0.009, 0.0, 0.0)]
        assert macro_new_card_demand(flows) == pytest.approx(0.017 * 2e6, rel=1e-12)


class TestMicroModels:
    def test_all_zero(self):
        flows = [count_flow("A", 0, 0, 0, 0, 0, 0)]
        assert micro_net_card_change(flows) == 0.0
        assert micro_new_card_demand(flows) == 0.0

    def test_state_contribution_and_total(self):
        a = count_flow("A", 100, 40, 10, 5, 3, 2)
        b = count_flow("B", 0, 0, 5, 10, 0, 0)  # absorbs A's interstate mismatch
        assert micro_state_contribution(a) == 66.0
        assert micro_net_card_change([a, b]) == 66.0 + (5.0 - 10.0)

    def test_balanced_exchange_nets_to_zero(self):
        flows = [
            count_flow("A", 0, 0, 50, 50, 0, 0),
            count_flow("B", 0, 0, 50, 50, 0, 0),
        ]
        assert micro_net_card_change(flows) == 0.0

    def test_closure_violation_names_totals(self):
        flows = [count_flow("A", 0, 0, 10, 4, 0, 0)]
        with pytest.raises(ConsistencyError, match=r"4.*10|10.*4"):
            micro_net_card_change(flows)

    def test_new_demand_sum(self):
        flows = [count_flow("A", 100, 77, 10, 99, 3, 55)]
        assert micro_new_card_demand(flows) == 113.0

    def test_new_demand_ignores_deaths_and_outflows(self):
        base = count_flow("A", 100, 40, 10, 5, 3, 2)
        demand = micro_new_card_demand([base])
        for deaths, out, emig in [(0, 0, 0), (500, 123, 77), (1, 99, 3)]:
            perturbed = count_flow("A", 100, deaths, 10, out, 3, emig)
            assert micro_new_card_demand([perturbed]) == demand
        assert demand >= 0


class TestMacroMicroAgreement:
    def test_counts_from_rates_bridges_models(self):
        rng = np.random.default_rng(1209)
        for _ in range(100):
            n_states = rng.integers(1, 9)
            rates = []
            for i in range(int(n_states)):
                rates.append(
                    rate_flow(
                        f"S{i}",
                        float(rng.uniform(1e4, 1e7)),
                        *(float(r) for r in rng.uniform(0.0, 0.05, size=4)),
                    )
                )
            # rescale out-rates so interstate moves close nationally
            total_in = sum(f.in_rate * f.population for f in rates)
            total_out = sum(f.out_rate * f.population for f in rates)
            if total_out > 0:
                scale = total_in / total_out
                rates = [
                    rate_flow(
                        f.state, f.population, f.birth_rate, f.death_rate,
                        f.in_rate, f.out_rate * scale,
                    )
                    for f in rates
                ]
            counts = [counts_from_rates(f) for f in rates]
            macro_net = macro_net_card_change(rates)
            micro_net = micro_net_card_change(counts)
            assert math.isclose(micro_net, macro_net, rel_tol=1e-9, abs_tol=1e-9)
            macro_new = macro_new_card_demand(rates)
            micro_new = micro_new_card_demand(counts)
            assert math.isclose(micro_new, macro_new, rel_tol=1e-9, abs_tol=1e-9)


class TestAge15Transition:
    def test_no_fourteen_year_olds(self):
        assert age15_transition(0.0, 50) == 0

    def test_hand_value_with_survival(self):
        # 1000 fourteen-year-olds at survival 0.998
        assert age15_transition(1000.0 * 0.998, 1000) == 998

    def test_rounds_half_to_even(self):
        assert age15_transition(2.5, 10) == 2
        assert age15_transition(3.5, 10) == 4

    def test_insufficient_links_is_consistency_error(self):
        assert age15_transition(300.0, 300) == 300
        with pytest.raises(ConsistencyError, match="needs 300 child links, ledger has 100"):
            age15_transition(300.0, 100)

    def test_non_finite_count_rejected(self):
        with pytest.raises(DomainError):
            age15_transition(math.nan, 10)


class TestProcessCardReturns:
    def test_noop(self):
        assert process_card_returns(0.0, 0.0, 100, 10) == (0, 0)

    def test_rounds_half_to_even(self):
        assert process_card_returns(2.5, 3.5, 100, 10) == (2, 4)

    def test_overdraw_is_consistency_error(self):
        assert process_card_returns(10.0, 1.0, 10, 1) == (10, 1)
        with pytest.raises(ConsistencyError, match="cannot return 11 cards"):
            process_card_returns(11.0, 0.0, 10, 0)
        with pytest.raises(ConsistencyError, match="cannot release 1 child links"):
            process_card_returns(0.0, 1.0, 10, 0)

    def test_negative_counts_rejected(self):
        with pytest.raises(DomainError):
            process_card_returns(-1.0, 0.0, 10, 0)
        with pytest.raises(DomainError):
            process_card_returns(0.0, -1.0, 10, 10)


class TestDemandSeries:
    def test_rows_must_be_consecutive(self):
        with pytest.raises(DomainError, match="consecutive"):
            DemandSeries([2012, 2014], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0])

    def test_negative_entries_rejected(self):
        message = r"returned must be finite and >= 0 in each of 2 years, got \[0.0, -1.0\]"
        with pytest.raises(DomainError, match=message):
            DemandSeries([2012, 2013], [1.0, 1.0], [1.0, 1.0], [0.0, -1.0])

    @pytest.mark.parametrize(
        "years, message",
        [
            ([10**20], "year 100000000000000000000 lies outside the int64 range "
             "-9223372036854775808..9223372036854775807"),
            (np.array([2**63 - 1, -(2**63)]),
             "years must be consecutive, got [9223372036854775807, -9223372036854775808]"),
            ([1.5, 2.5], "years must be integers, got [1.5, 2.5]"),
            ([[2012, 2013]], "years must be consecutive, got [[2012, 2013]]"),
        ],
        ids=["beyond-int64", "wrapping-diff", "fractional", "two-dimensional"],
    )
    def test_bad_year_labels_fail_in_one_line(self, years, message):
        n = len(years)
        with pytest.raises(DomainError) as err:
            DemandSeries(years, [1.0] * n, [1.0] * n, [0.0] * n)
        assert str(err.value) == message

    def test_numpy_integer_years_accepted(self):
        years = np.array([2**63 - 2, 2**63 - 1], dtype=np.uint64)
        series = DemandSeries(years, [1.0, 1.0], [1.0, 1.0], [0.0, 0.0])
        assert series.years.dtype == np.int64
        assert series.years.tolist() == [2**63 - 2, 2**63 - 1]

    def test_columns_must_match_the_years(self):
        with pytest.raises(DomainError, match="new_female must be finite and >= 0 in each of 2"):
            DemandSeries([2012, 2013], [1.0, 1.0], [1.0], [0.0, 0.0])

    def test_rows_view_the_arrays(self):
        series = DemandSeries([2012, 2013], [1.0, 2.0], [3.0, 4.0], [0.5, 0.0])
        rows = series.rows
        assert rows.tolist() == [(2012, 1.0, 3.0, 0.5, 4.0), (2013, 2.0, 4.0, 0.0, 6.0)]
        assert rows.dtype.names == (
            "year", "new_cards_male", "new_cards_female", "returned_cards", "new_cards_total"
        )
        assert rows.year.dtype == np.int64 and rows[1].new_cards_total == 6.0


def toy_inputs(region, horizon_age=100):
    axis = AgeAxis(horizon_age)
    pop = dense_pyramid(
        region,
        2011,
        axis,
        female={14: 200.0, 20: 1000.0, 30: 500.0, 40: 300.0},
        male={14: 100.0, 20: 800.0, 50: 400.0},
    )
    sched = SurvivalSchedule.flat(axis, 0.96, 0.98)
    fert = FertilityConfig.flat(0.1, eligible_proportion=0.8, sex_ratio_at_birth=1.05)
    flows = [count_flow("ST", 0, 0, 10, 10, 5, 3)]
    return pop, sched, fert, flows


class TestCardSimulation:
    def test_age15_only_when_no_births_or_migration(self, region, axis):
        pop = dense_pyramid(region, 2011, axis, female={14: 100.0}, male={14: 60.0})
        sched = SurvivalSchedule.flat(axis, 1.0)
        fert = FertilityConfig({}, 1.0, 1.0)
        series = annual_card_requirement_series(pop, sched, fert, [], 2)
        assert series.rows[0].new_cards_female == 100.0
        assert series.rows[0].new_cards_male == 60.0
        assert series.rows[0].returned_cards == 0.0
        # the cohort has moved past 14, so year 2 has no transitions
        assert series.rows[1].new_cards_total == 0.0

    def test_toy_fixture_matches_hand_rows(self, region):
        pop, sched, fert, flows = toy_inputs(region)
        series = annual_card_requirement_series(pop, sched, fert, flows, 3)
        # year 1, hand arithmetic: births 141.12 split 1.05:1, age-15
        # transitions 196 F / 96 M, migration in 15 split evenly
        assert series.rows[0].new_cards_male == pytest.approx(
            141.12 * 1.05 / 2.05 + 96.0 + 7.5, rel=1e-12
        )
        assert series.rows[0].new_cards_female == pytest.approx(
            141.12 / 2.05 + 196.0 + 7.5, rel=1e-12
        )
        assert series.rows[0].returned_cards == pytest.approx(84.0 + 13.0, rel=1e-12)

    def test_policy_full_drops_age15_component(self, region):
        pop, sched, fert, flows = toy_inputs(region)
        with_15 = annual_card_requirement_series(pop, sched, fert, flows, 1)
        without = annual_card_requirement_series(
            pop, sched, fert, flows, 1, IssuancePolicy.NUMBER_AND_CARD_AT_BIRTH
        )
        assert with_15.rows[0].new_cards_female - without.rows[0].new_cards_female == pytest.approx(
            196.0, rel=1e-12
        )
        assert with_15.rows[0].new_cards_male - without.rows[0].new_cards_male == pytest.approx(
            96.0, rel=1e-12
        )

    def test_at_age_one_scales_birth_component(self, region):
        pop, sched, fert, flows = toy_inputs(region)
        fert = FertilityConfig.flat(
            0.1, eligible_proportion=0.8, sex_ratio_at_birth=1.05, infant_mortality=60.0
        )
        at_birth = annual_card_requirement_series(
            pop, sched, fert, flows, 1, IssuancePolicy.NUMBER_AND_CARD_AT_BIRTH
        )
        at_age_one = annual_card_requirement_series(pop, sched, fert, flows, 1, IssuancePolicy.AT_AGE_ONE)
        birth_m = at_birth.rows[0].new_cards_male - 7.5
        aged_m = at_age_one.rows[0].new_cards_male - 96.0 - 7.5
        assert aged_m == pytest.approx(0.94 * birth_m, rel=1e-12)

    def test_rows_nonnegative_for_nonnegative_inputs(self, region):
        pop, sched, fert, flows = toy_inputs(region)
        series = annual_card_requirement_series(pop, sched, fert, flows, 10)
        for row in series.rows:
            assert row.new_cards_male >= 0
            assert row.new_cards_female >= 0
            assert row.returned_cards >= 0

    def test_ledger_identity_and_links(self, region):
        pop, sched, fert, flows = toy_inputs(region)
        series, ledgers = run_card_simulation(pop, sched, fert, flows, 10)
        assert len(ledgers) == 11
        assert ledgers.dtype.names == (
            "year", "active_cards", "issued_this_year", "returned_this_year", "child_links"
        )
        assert all(ledgers.dtype[k] == np.int64 for k in range(5))
        assert ledgers.year.tolist() == list(range(2011, 2022))
        for prev, cur in zip(ledgers, ledgers[1:]):
            assert cur.active_cards == prev.active_cards + cur.issued_this_year - cur.returned_this_year
            assert cur.child_links >= 0
            assert cur.year == prev.year + 1

    def test_card_at_birth_policy_long_run(self, region):
        # everyone holds a card, so child deaths must draw on the
        # inventory rather than on (empty) linkages
        pop, sched, fert, flows = toy_inputs(region)
        _, ledgers = run_card_simulation(
            pop, sched, fert, flows, 15, IssuancePolicy.NUMBER_AND_CARD_AT_BIRTH
        )
        assert ledgers[0].child_links == 0
        assert ledgers[0].active_cards == 3300  # whole starting population
        for prev, cur in zip(ledgers, ledgers[1:]):
            assert cur.active_cards == prev.active_cards + cur.issued_this_year - cur.returned_this_year
            assert cur.child_links == 0

    @pytest.mark.parametrize("policy", list(IssuancePolicy))
    def test_returned_cards_match_the_ledger(self, region, policy):
        # under every policy the row reports the returns the ledger books,
        # children's cards included when they hold one
        pop, sched, fert, flows = toy_inputs(region)
        series, ledgers = run_card_simulation(pop, sched, fert, flows, 5, policy)
        for row, ledger in zip(series.rows, ledgers[1:]):
            assert row.year == ledger.year
            assert round(row.returned_cards) == ledger.returned_this_year

    def test_full_policy_returns_count_child_deaths(self, region):
        pop, sched, fert, flows = toy_inputs(region)
        full = annual_card_requirement_series(
            pop, sched, fert, flows, 1, IssuancePolicy.NUMBER_AND_CARD_AT_BIRTH
        )
        # year 1: deaths 84 at 15+ and 4 + 4 at age 14, plus out-flow 13
        assert full.rows[0].returned_cards == pytest.approx(84.0 + 8.0 + 13.0, rel=1e-12)

    @pytest.mark.parametrize(
        "policy, start, after",
        [
            # adult deaths 10 plus emigrants 5 return cards; child deaths
            # 7 release links only
            (IssuancePolicy.AT_BIRTH, (100, 70), (85, 0, 15, 63)),
            # every person holds a card: every death returns one
            (IssuancePolicy.NUMBER_AND_CARD_AT_BIRTH, (170, 0), (148, 0, 22, 0)),
        ],
    )
    def test_deaths_and_emigrants_in_the_ledger(self, region, axis, policy, start, after):
        pop = dense_pyramid(region, 2011, axis, female={3: 70.0}, male={40: 100.0})
        sched = SurvivalSchedule.flat(axis, 0.9)
        flows = [count_flow("ST", 0, 0, 0, 0, 0, 5)]
        _, ledgers = run_card_simulation(pop, sched, FertilityConfig({}, 1.0, 1.0), flows, 1, policy)
        first, last = ledgers
        assert (first.active_cards, first.child_links) == start
        assert (
            last.active_cards, last.issued_this_year, last.returned_this_year, last.child_links
        ) == after

    @pytest.mark.parametrize("policy", list(IssuancePolicy))
    def test_counts_beyond_int64_are_domain_errors(self, region, axis, policy):
        # cards are int64: a count or a running total past 2**63 - 1 must
        # not wrap. 9e18 cards fit; 4.5e17 births a year push past.
        sched = SurvivalSchedule.flat(axis, 1.0)
        fert = FertilityConfig.flat(0.1, 1.0, 1.0)
        huge = dense_pyramid(region, 2011, axis, female={20: 1e19})
        with pytest.raises(DomainError, match="1e\\+19 is outside the int64 range"):
            run_card_simulation(huge, sched, fert, [], 1, policy)
        pop = dense_pyramid(region, 2011, axis, female={20: 4.5e18}, male={20: 4.5e18})
        _, ledgers = run_card_simulation(pop, sched, FertilityConfig({}, 1.0, 1.0), [], 1, policy)
        assert ledgers[1].active_cards + ledgers[1].child_links == 9 * 10**18
        with pytest.raises(DomainError, match="card totals over the horizon exceed the int64"):
            run_card_simulation(pop, sched, fert, [], 1, policy)

    def test_years_beyond_int64_are_domain_errors(self, region):
        # the year labels are int64 too: the base year and the last year
        pop, sched, fert, flows = toy_inputs(region)
        for base, horizon, year in [
            (2**63 - 5, 5, 2**63), (-(2**63) - 1, 1, -(2**63) - 1), (10**20, 1, 10**20)
        ]:
            with pytest.raises(DomainError, match=rf"^year {year} lies outside the int64 range"):
                run_card_simulation(replace(pop, time_label=base), sched, fert, flows, horizon)
        edge = replace(pop, time_label=2**63 - 6)
        series, snapshots = run_card_simulation(edge, sched, fert, flows, 5)
        assert snapshots.year[0] == 2**63 - 6 and series.years[-1] == 2**63 - 1

    def test_horizon_below_one_rejected(self, region):
        pop, sched, fert, flows = toy_inputs(region)
        with pytest.raises(DomainError):
            annual_card_requirement_series(pop, sched, fert, flows, 0)


@st.composite
def ledger_inputs(draw):
    """A dense pyramid and survival schedule on a random axis, flat
    fertility, up to two flow records, a policy and a horizon."""
    axis = AgeAxis(draw(st.integers(49, 70)))
    cells = 2 * axis.n_ages
    counts = draw(st.lists(st.floats(0.0, 1e6), min_size=cells, max_size=cells))
    pop = AgePyramid.from_array("HY", 2011, axis, np.array(counts).reshape(2, axis.n_ages))
    probs = iter(draw(st.lists(st.floats(0.0, 1.0), min_size=cells, max_size=cells)))
    survival = SurvivalSchedule(
        axis,
        {(sex, a): 0.0 if a == axis.max_age else next(probs) for sex in Sex for a in axis.ages()},
    )
    fert = FertilityConfig.flat(
        draw(st.floats(0.0, 0.3)),
        eligible_proportion=draw(st.floats(0.0, 1.0)),
        sex_ratio_at_birth=draw(st.floats(0.8, 1.3)),
        infant_mortality=draw(st.floats(0.0, 1000.0, exclude_max=True)),
    )
    flow = st.builds(
        count_flow, st.just("ST"), *[st.floats(0.0, 1e3) for _ in range(6)]
    )
    flows = draw(st.lists(flow, max_size=2))
    policy = draw(st.sampled_from(list(IssuancePolicy)))
    return pop, survival, fert, flows, draw(st.integers(1, 25)), policy


class TestCardSimulationProperties:
    @given(ledger_inputs())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_year_by_year_oracle(self, inputs):
        # the array pass books every year as the scalar steps would, and
        # stops at the same overdraw with the same message
        try:
            rows, ledgers = card_ledger_oracle(*inputs)
        except ConsistencyError as exc:
            with pytest.raises(ConsistencyError) as err:
                run_card_simulation(*inputs)
            assert str(err.value) == str(exc)
            return
        series, snapshots = run_card_simulation(*inputs)
        assert snapshots.tolist() == ledgers
        assert series.rows.tolist() == rows

    @given(ledger_inputs())
    @settings(max_examples=200, deadline=None)
    def test_rows_and_snapshots_agree(self, inputs):
        pop, survival, fert, flows, horizon, policy = inputs
        try:
            series, ledgers = run_card_simulation(pop, survival, fert, flows, horizon, policy)
        except ConsistencyError:
            return  # the ledger refusing an overdraw is the one allowed failure
        assert len(series.rows) == horizon and ledgers[0].year == pop.time_label
        for prev, cur, row in zip(ledgers, ledgers[1:], series.rows):
            assert cur.active_cards == prev.active_cards + cur.issued_this_year - cur.returned_this_year
            assert cur.child_links >= 0
            assert row.year == cur.year
            assert round(row.returned_cards) == cur.returned_this_year


class TestNationalDemand:
    """Criterion 08's national inputs over thirty years, under the two
    policies that the three-year golden file does not cover."""

    @pytest.mark.parametrize(
        "policy, infant_mortality, golden",
        [
            (IssuancePolicy.AT_AGE_ONE, 44.0, "golden_demand_at_age_one_30yr.csv"),
            (IssuancePolicy.NUMBER_AND_CARD_AT_BIRTH, 0.0, "golden_demand_full_30yr.csv"),
        ],
    )
    def test_demand_file_matches_golden(self, tmp_path, policy, infant_mortality, golden):
        pyramid, survival, fert, flows = national_demand_inputs()
        fert = replace(fert, infant_mortality=infant_mortality)
        series = annual_card_requirement_series(pyramid, survival, fert, flows, 30, policy)
        emit_demand_csv(series, tmp_path / "demand.csv")
        assert (tmp_path / "demand.csv").read_bytes() == (DATA / golden).read_bytes()

    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="a newborn is booked both as an issued card and as a child link under "
        "at-birth and at-age-one, and separately rounded flows drift under full "
        "(ROADMAP item 1, newborns booked twice)",
    )
    @pytest.mark.parametrize("policy", list(IssuancePolicy))
    def test_cards_and_links_add_up_to_the_projected_population(self, policy):
        pyramid, survival, fert, _ = national_demand_inputs()
        _, ledgers = run_card_simulation(pyramid, survival, fert, [], 30, policy)
        totals = project_population(pyramid, survival, fert, 30).counts.sum(axis=(1, 2))
        for ledger, total in zip(ledgers, totals.tolist()):
            assert abs(ledger.active_cards + ledger.child_links - total) <= 1

    @pytest.mark.xfail(
        raises=ConsistencyError,
        strict=True,
        reason="child links are added at (1 - IMR) x births, but every age-0 death "
        "releases one (ROADMAP item 2b)",
    )
    def test_at_age_one_links_cover_infant_deaths(self):
        pyramid, survival, fert, flows = national_demand_inputs()
        fert = replace(fert, infant_mortality=300.0)
        annual_card_requirement_series(
            pyramid, survival, fert, flows, 60, IssuancePolicy.AT_AGE_ONE
        )

    @pytest.mark.xfail(
        raises=ConsistencyError,
        strict=True,
        reason="child links are booked as separately rounded yearly flows, so the integer "
        "stock drifts from the real under-15 stock (ROADMAP item 1, at-birth drift)",
    )
    def test_at_birth_links_follow_the_real_stock(self):
        # real under-15 stock 1.75; each year's 0.25 births round to no link
        axis = AgeAxis(100)
        region = "IN"
        pop = dense_pyramid(region, 2011, axis, female={3: 2.0, 31: 1.0})
        p = np.ones((2, axis.n_ages))
        p[:, 0] = 0.0
        p[Sex.FEMALE.row, 4] = 0.75
        p[Sex.FEMALE.row, 5] = 0.0
        p[:, axis.max_age] = 0.0
        survival = SurvivalSchedule(
            axis, {(sex, a): p[sex.row, a] for sex in Sex for a in axis.ages()}
        )
        fert = FertilityConfig.flat(0.25, 1.0, 1.0)
        run_card_simulation(pop, survival, fert, [], 3, IssuancePolicy.AT_BIRTH)
