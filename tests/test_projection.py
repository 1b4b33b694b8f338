import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uidforge import (
    AgeAxis,
    AgePyramid,
    DomainError,
    FertilityConfig,
    RegionId,
    Sex,
    SurvivalSchedule,
    age_group_survivors,
    deaths_by_age,
    multi_year_survival,
    project_births,
    project_population,
    survive_cohorts,
)
from conftest import dense_pyramid
from oracles import bernoulli_cohort_survivors, brute_force_births


@pytest.fixture
def fert_flat():
    return FertilityConfig.flat(0.1, eligible_proportion=0.8, sex_ratio_at_birth=1.05)


class TestProjectBirths:
    def test_zero_fertility_zero_births(self, region, axis, unit_survival):
        pop = dense_pyramid(region, 2011, axis, female={20: 1000.0})
        fert = FertilityConfig({}, 1.0, 1.05)
        assert project_births(pop, unit_survival, fert).sum() == 0.0

    def test_zero_eligibility_zero_births(self, region, axis, unit_survival):
        pop = dense_pyramid(region, 2011, axis, female={20: 1000.0})
        fert = FertilityConfig.flat(0.2, eligible_proportion=0.0, sex_ratio_at_birth=1.05)
        assert project_births(pop, unit_survival, fert).sum() == 0.0

    def test_single_cell_hand_value(self, region, axis):
        # 1000 * 0.99 * 0.2 * 0.5 = 99
        pop = dense_pyramid(region, 2011, axis, female={20: 1000.0})
        sched = SurvivalSchedule.flat(region, axis, 0.99)
        fert = FertilityConfig({20: 0.2}, eligible_proportion=0.5, sex_ratio_at_birth=1.0)
        births = project_births(pop, sched, fert)
        assert births.sum() == pytest.approx(99.0, rel=1e-12)
        assert births.sum() == pytest.approx(
            brute_force_births(pop, sched, fert), rel=1e-12
        )

    def test_matches_brute_force_on_spread_population(self, region, axis):
        female = {age: 100.0 + 3.0 * age for age in range(10, 60)}
        pop = dense_pyramid(region, 2011, axis, female=female)
        sched = SurvivalSchedule.flat(region, axis, 0.97, 0.985)
        fert = FertilityConfig.flat(0.08, eligible_proportion=0.9, sex_ratio_at_birth=1.06)
        got = project_births(pop, sched, fert).sum()
        assert got == pytest.approx(brute_force_births(pop, sched, fert), rel=1e-12)

    def test_missing_reproductive_age_is_domain_error(self, region, axis, unit_survival):
        pop = AgePyramid(region, 2011, axis, {(Sex.FEMALE, 20): 1000.0})
        fert = FertilityConfig.flat(0.1, 1.0, 1.05)
        with pytest.raises(DomainError, match="reproductive"):
            project_births(pop, unit_survival, fert)

    def test_sex_split_follows_ratio(self, region, axis, unit_survival):
        pop = dense_pyramid(region, 2011, axis, female={25: 500.0})
        fert = FertilityConfig({25: 0.3}, eligible_proportion=1.0, sex_ratio_at_birth=1.05)
        births = project_births(pop, unit_survival, fert)
        assert births[Sex.MALE.row] / births[Sex.FEMALE.row] == pytest.approx(
            1.05, rel=1e-12
        )
        assert births[Sex.MALE.row] + births[Sex.FEMALE.row] == births.sum()

    def test_doubling_eligibility_doubles_births_exactly(self, region, axis):
        female = {age: 37.5 + age for age in range(15, 50)}
        pop = dense_pyramid(region, 2011, axis, female=female)
        sched = SurvivalSchedule.flat(region, axis, 0.93)
        half = FertilityConfig.flat(0.11, eligible_proportion=0.41, sex_ratio_at_birth=1.0)
        full = FertilityConfig.flat(0.11, eligible_proportion=0.82, sex_ratio_at_birth=1.0)
        assert project_births(pop, sched, full).sum() == 2.0 * project_births(
            pop, sched, half
        ).sum()

    def test_births_are_age_zero_of_the_next_frame_bit_for_bit(self, region, axis):
        female = {age: 1000.0 / (age + 1) for age in range(101)}
        pop = dense_pyramid(region, 2011, axis, female=female, male={3: 7.0})
        sched = SurvivalSchedule.flat(region, axis, 0.987, 0.991)
        fert = FertilityConfig.flat(0.13, eligible_proportion=0.7, sex_ratio_at_birth=1.07)
        births = project_births(pop, sched, fert)
        assert births.dtype == np.float64 and births.shape == (2,)
        frame = project_population(pop, sched, fert, 1).counts[1, :, 0]
        assert births.tobytes() == frame.tobytes()


class TestInfantSurvival:
    def test_sixty_per_thousand(self):
        fert = FertilityConfig.flat(0.1, 1.0, 1.0, infant_mortality=60.0)
        assert fert.infant_survival == pytest.approx(0.94, rel=1e-12)

    def test_zero_mortality_is_identity(self):
        assert FertilityConfig.flat(0.1, 1.0, 1.0, infant_mortality=0.0).infant_survival == 1.0


class TestSurviveCohorts:
    def test_identity_survival_shifts_ages(self, region, axis, unit_survival):
        pop = dense_pyramid(region, 2011, axis, female={20: 100.0, 30: 50.0}, male={40: 25.0})
        out = survive_cohorts(pop, unit_survival, 10)
        assert out.count(Sex.FEMALE, 30) == 100.0
        assert out.count(Sex.FEMALE, 40) == 50.0
        assert out.count(Sex.MALE, 50) == 25.0
        assert out.count(Sex.FEMALE, 20) == 0.0
        assert out.time_label == 2021

    def test_zero_survival_kills_crossing_cohort(self, region):
        axis = AgeAxis(60)
        cells = {(s, a): (0.0 if a in (25, 60) else 1.0) for s in Sex for a in axis.ages()}
        sched = SurvivalSchedule(region, axis, cells)
        pop = dense_pyramid(region, 0, axis, female={20: 100.0, 30: 40.0})
        out = survive_cohorts(pop, sched, 10)
        assert out.count(Sex.FEMALE, 30) == 0.0  # crossed age 25
        assert out.count(Sex.FEMALE, 40) == 40.0

    def test_cohort_against_bernoulli_microsim(self, region, axis):
        # 200 * 0.99489**10, checked against a seeded per-person simulation
        sched = SurvivalSchedule.flat(region, axis, 0.99489)
        pop = dense_pyramid(region, 0, axis, female={30: 200.0})
        expected = survive_cohorts(pop, sched, 10).count(Sex.FEMALE, 40)
        assert expected == pytest.approx(200.0 * 0.99489**10, rel=1e-12)
        reps = bernoulli_cohort_survivors(200, [0.99489] * 10, seed=20260331, replications=200)
        p10 = 0.99489**10
        binom_sd = np.sqrt(200 * p10 * (1 - p10))
        assert abs(reps.mean() - expected) <= 3 * binom_sd / np.sqrt(len(reps))

    def test_total_never_grows(self, region, axis):
        pop = dense_pyramid(
            region, 0, axis, female={a: 10.0 for a in range(0, 80)}, male={a: 9.0 for a in range(0, 80)}
        )
        sched = SurvivalSchedule.flat(region, axis, 0.93, 0.97)
        out = survive_cohorts(pop, sched, 7)
        assert out.total() <= pop.total()

    @given(
        probs=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=20, max_size=20
        ),
        counts=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=20, max_size=20
        ),
        span=st.integers(min_value=1, max_value=19),
    )
    @settings(max_examples=150, deadline=None)
    def test_total_monotonicity_for_any_schedule(self, probs, counts, span):
        axis = AgeAxis(19)
        region = RegionId("X")
        cells = {(s, x): (probs[x] if x < 19 else 0.0) for s in Sex for x in range(20)}
        sched = SurvivalSchedule(region, axis, cells)
        pop = dense_pyramid(region, 0, axis, female=dict(enumerate(counts)))
        out = survive_cohorts(pop, sched, span)
        assert out.total() <= pop.total() * (1 + 1e-12)

    @given(
        probs=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=40, max_size=40
        ),
        counts=st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False), min_size=40, max_size=40
        ),
        span=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_reference_composition_cell_by_cell(self, probs, counts, span):
        # the array step against the per-cell reference, bit for bit
        axis = AgeAxis(19)
        region = RegionId("X")
        cells = {
            (s, x): (probs[x + 20 * (s is Sex.MALE)] if x < 19 else 0.0)
            for s in Sex
            for x in axis.ages()
        }
        sched = SurvivalSchedule(region, axis, cells)
        pop = dense_pyramid(
            region, 0, axis, female=dict(enumerate(counts[:20])), male=dict(enumerate(counts[20:]))
        )
        out = survive_cohorts(pop, sched, span)
        for sex in Sex:
            for x in axis.ages():
                if x + span <= axis.max_age:
                    expected = pop.count(sex, x) * multi_year_survival(sched, sex, x, span)
                    assert out.count(sex, x + span) == expected
            for x in range(span):
                assert out.count(sex, x) == 0.0

    @given(span=st.integers(min_value=101, max_value=150))
    @settings(max_examples=10, deadline=None)
    def test_span_beyond_axis_rejected(self, span):
        region = RegionId("X")
        axis = AgeAxis(100)
        pop = dense_pyramid(region, 0, axis)
        sched = SurvivalSchedule.flat(region, axis, 0.9)
        with pytest.raises(DomainError):
            survive_cohorts(pop, sched, span)

    def test_span_below_one_rejected(self, region, axis, unit_survival):
        pop = dense_pyramid(region, 0, axis)
        with pytest.raises(DomainError):
            survive_cohorts(pop, unit_survival, 0)


class TestAgeGroupSurvivors:
    def test_width_one_equals_single_cohort(self, region, axis):
        sched = SurvivalSchedule.flat(region, axis, 0.95)
        pop = dense_pyramid(region, 0, axis, female={20: 150.0})
        group = age_group_survivors(pop, sched, 20, 1, 5, sex=Sex.FEMALE)
        single = survive_cohorts(pop, sched, 5).count(Sex.FEMALE, 25)
        assert group == pytest.approx(single, rel=1e-12)

    def test_identity_survival_preserves_group_total(self, region, axis, unit_survival):
        pop = dense_pyramid(region, 0, axis, female={20: 100.0, 21: 200.0, 22: 50.0})
        assert age_group_survivors(pop, unit_survival, 20, 3, 30, sex=Sex.FEMALE) == 350.0

    def test_two_cell_hand_value(self, region, axis):
        # 100 * 0.81 + 200 * 0.81 = 243
        sched = SurvivalSchedule.flat(region, axis, 0.9)
        pop = dense_pyramid(region, 0, axis, female={20: 100.0, 21: 200.0})
        got = age_group_survivors(pop, sched, 20, 2, 2, sex=Sex.FEMALE)
        assert got == pytest.approx(243.0, rel=1e-12)

    def test_equals_sum_of_survived_cohorts_both_sexes(self, region, axis):
        sched = SurvivalSchedule.flat(region, axis, 0.92, 0.96)
        pop = dense_pyramid(
            region,
            0,
            axis,
            female={30: 10.0, 31: 20.0, 32: 30.0, 33: 40.0},
            male={30: 5.0, 31: 15.0, 32: 25.0, 33: 35.0},
        )
        group = age_group_survivors(pop, sched, 30, 4, 6)
        survived = survive_cohorts(pop, sched, 6)
        independent_sum = sum(
            survived.count(sex, a) for sex in Sex for a in range(36, 40)
        )
        assert group == pytest.approx(independent_sum, rel=1e-12)

    def test_bounds_checked(self, region, axis):
        sched = SurvivalSchedule.flat(region, axis, 0.9)
        pop = dense_pyramid(region, 0, axis)
        with pytest.raises(DomainError):
            age_group_survivors(pop, sched, 95, 4, 3)


class TestProjectPopulation:
    def test_horizon_zero_returns_input_only(self, region, axis, unit_survival, fert_flat):
        pop = dense_pyramid(region, 2011, axis, female={20: 10.0})
        series = project_population(pop, unit_survival, fert_flat, 0)
        assert series.horizon == 0
        assert series.frames == (pop,)

    def test_conservation_with_unit_survival_and_no_births(self, region, axis, unit_survival):
        fert = FertilityConfig({}, 1.0, 1.05)
        pop = dense_pyramid(
            region,
            2011,
            axis,
            female={a: 100.0 + a for a in range(0, 40)},
            male={a: 90.0 + a for a in range(0, 40)},
        )
        series = project_population(pop, unit_survival, fert, 5)
        base = pop.total()
        for k, frame in enumerate(series.frames):
            assert frame.total() == pytest.approx(base, rel=1e-12)
            assert frame.count(Sex.FEMALE, 20 + k) == pop.count(Sex.FEMALE, 20)

    def test_two_year_spreadsheet_fixture(self, region):
        # hand-computed year-by-year arithmetic, frozen before implementation:
        # survival 0.9 flat, F(20)=.5 F(21)=.25 F(30)=.2 F(31)=.1, K=.8, ratio 1
        axis = AgeAxis(49)
        pop = dense_pyramid(region, 2011, axis, female={20: 100.0, 30: 50.0, 49: 20.0})
        sched = SurvivalSchedule.flat(region, axis, 0.9)
        fert = FertilityConfig(
            {20: 0.5, 21: 0.25, 30: 0.2, 31: 0.1},
            eligible_proportion=0.8,
            sex_ratio_at_birth=1.0,
        )
        series = project_population(pop, sched, fert, 2)

        f1 = series.frame(1)
        assert f1.count(Sex.FEMALE, 0) == pytest.approx(21.6, rel=1e-12)
        assert f1.count(Sex.MALE, 0) == pytest.approx(21.6, rel=1e-12)
        assert f1.count(Sex.FEMALE, 21) == pytest.approx(90.0, rel=1e-12)
        assert f1.count(Sex.FEMALE, 31) == pytest.approx(45.0, rel=1e-12)
        assert f1.count(Sex.FEMALE, 49) == 0.0  # 49 is the last age of life here

        f2 = series.frame(2)
        assert f2.count(Sex.FEMALE, 0) == pytest.approx(9.72, rel=1e-12)
        assert f2.count(Sex.FEMALE, 1) == pytest.approx(19.44, rel=1e-12)
        assert f2.count(Sex.MALE, 1) == pytest.approx(19.44, rel=1e-12)
        assert f2.count(Sex.FEMALE, 22) == pytest.approx(81.0, rel=1e-12)
        assert f2.count(Sex.FEMALE, 32) == pytest.approx(40.5, rel=1e-12)

    def test_frames_share_region_and_axis(self, region, axis, unit_survival, fert_flat):
        pop = dense_pyramid(region, 2011, axis, female={20: 10.0})
        series = project_population(pop, unit_survival, fert_flat, 3)
        for k, frame in enumerate(series.frames):
            assert frame.region == region
            assert frame.axis == axis
            assert frame.time_label == 2011 + k

    def test_negative_horizon_rejected(self, region, axis, unit_survival, fert_flat):
        pop = dense_pyramid(region, 2011, axis)
        with pytest.raises(DomainError):
            project_population(pop, unit_survival, fert_flat, -1)

    def test_small_pyramid_against_microsim(self, region):
        # stochastic oracle for the deterministic aging chain
        axis = AgeAxis(100)
        sched = SurvivalSchedule.flat(region, axis, 0.9)
        pop = dense_pyramid(region, 0, axis, male={50: 2000.0})
        expected = survive_cohorts(pop, sched, 5).count(Sex.MALE, 55)
        reps = bernoulli_cohort_survivors(2000, [0.9] * 5, seed=42, replications=200)
        se = reps.std(ddof=1) / np.sqrt(len(reps))
        assert abs(reps.mean() - expected) <= 3 * se


class TestDeathsByAge:
    def test_matches_survival_complement(self, region, axis):
        sched = SurvivalSchedule.flat(region, axis, 0.96, 0.98)
        pop = dense_pyramid(region, 0, axis, female={20: 1000.0}, male={30: 500.0})
        deaths = deaths_by_age(pop.array, sched.array)
        assert deaths.shape == (2, axis.n_ages)
        assert deaths[Sex.FEMALE.row, 20] == pytest.approx(1000.0 * 0.02, rel=1e-12)
        assert deaths[Sex.MALE.row, 30] == pytest.approx(500.0 * 0.04, rel=1e-12)
        assert np.count_nonzero(deaths) == 2
        assert np.array_equal(deaths, pop.array * (1.0 - sched.array))

    def test_last_age_always_dies(self, region, axis):
        sched = SurvivalSchedule.flat(region, axis, 1.0)
        pop = dense_pyramid(region, 0, axis, female={100: 42.0})
        assert deaths_by_age(pop.array, sched.array)[Sex.FEMALE.row, 100] == 42.0

    def test_stacked_frames_match_one_at_a_time(self, region, axis, fert_flat):
        sched = SurvivalSchedule.flat(region, axis, 0.97, 0.99)
        pop = dense_pyramid(region, 0, axis, female={a: 10.0 + a for a in range(60)})
        frames = project_population(pop, sched, fert_flat, 4).counts
        stacked = deaths_by_age(frames, sched.array)
        for k, frame in enumerate(frames):
            assert np.array_equal(stacked[k], deaths_by_age(frame, sched.array))
