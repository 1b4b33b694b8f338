import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uidforge import (
    AgeAxis,
    AgePyramid,
    DomainError,
    FertilityConfig,
    ProjectionSeries,
    RegionId,
    Sex,
    SurvivalSchedule,
    deaths_by_age,
    project_births,
    project_population,
    projection,
    survive_cohorts,
)
from uidforge.core import Cells
from conftest import dense_pyramid
from oracles import (
    bernoulli_cohort_survivors,
    brute_force_births,
    multi_year_survival,
    projection_oracle,
)


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

    def test_sparse_pyramid_lacking_f20_is_checked_cell_by_cell(self, region, axis):
        # every cell present but F20, in a mask of the pyramid's own
        present = np.ones((2, axis.n_ages), dtype=bool)
        present[Sex.FEMALE.row, 20] = False
        pop = AgePyramid(region, 2011, axis, Cells(np.ones((2, axis.n_ages)), present))
        sched = SurvivalSchedule.flat(region, axis, 1.0)
        fert = FertilityConfig.flat(0.1, 1.0, 1.05)
        with pytest.raises(DomainError) as err:
            project_births(pop, sched, fert)
        assert str(err.value) == "pyramid lacks female counts at reproductive ages [20]"
        # a full mask of its own passes the same check
        full = AgePyramid(region, 2011, axis, Cells(np.ones((2, axis.n_ages)), present | True))
        dense = AgePyramid.from_array(region, 2011, axis, np.ones((2, axis.n_ages)))
        assert np.array_equal(
            project_births(full, sched, fert), project_births(dense, sched, fert)
        )

    def test_dense_pyramid_on_a_short_axis_is_still_checked(self, region):
        axis = AgeAxis(30)
        pop = AgePyramid.from_array(region, 2011, axis, np.ones((2, axis.n_ages)))
        sched = SurvivalSchedule.flat(region, axis, 1.0)
        with pytest.raises(DomainError, match=r"reproductive ages \[31, 32, "):
            project_births(pop, sched, FertilityConfig.flat(0.1, 1.0, 1.05))

    @pytest.mark.parametrize(
        "max_age, dropped, missing",
        [(100, (20, 33), [20, 33]), (30, (), list(range(31, 50)))],
        ids=["gaps", "short-axis"],
    )
    def test_missing_reproductive_ages_named(self, region, max_age, dropped, missing):
        axis = AgeAxis(max_age)
        cells = {
            (sex, age): 0.0
            for sex in Sex
            for age in axis.ages()
            if not (sex is Sex.FEMALE and age in dropped)
        }
        pop = AgePyramid(region, 2011, axis, cells)
        sched = SurvivalSchedule.flat(region, axis, 1.0)
        with pytest.raises(DomainError) as err:
            project_births(pop, sched, FertilityConfig.flat(0.1, 1.0, 1.05))
        assert str(err.value) == f"pyramid lacks female counts at reproductive ages {missing}"

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


@pytest.mark.parametrize(
    "step",
    [
        lambda pop, sched: project_births(pop, sched, FertilityConfig.flat(0.1, 1.0, 1.05)),
        lambda pop, sched: survive_cohorts(pop, sched, 1),
    ],
    ids=["project_births", "survive_cohorts"],
)
def test_pyramid_and_schedule_on_different_axes_rejected(region, step):
    pop = dense_pyramid(region, 2011, AgeAxis(100), female={20: 1.0})
    sched = SurvivalSchedule.flat(region, AgeAxis(60), 0.9)
    with pytest.raises(DomainError) as err:
        step(pop, sched)
    assert str(err.value) == "pyramid axis (max_age 100) does not match survival axis (max_age 60)"


class TestInfantSurvival:
    def test_sixty_per_thousand(self):
        fert = FertilityConfig.flat(0.1, 1.0, 1.0, infant_mortality=60.0)
        assert fert.infant_survival == pytest.approx(0.94, rel=1e-12)

    def test_zero_mortality_is_identity(self):
        assert FertilityConfig.flat(0.1, 1.0, 1.0, infant_mortality=0.0).infant_survival == 1.0


# dyadic probabilities with <= 4 mantissa bits: an integer count 0..15
# times up to 12 of them is exact in double precision, so composition can
# be checked bit for bit rather than approximately
_dyadic_probs = st.integers(min_value=0, max_value=16).map(lambda i: i / 16.0)
_any_probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _schedule_29(probs):
    """Schedule on AgeAxis(29): F ages 0..28 from probs[:29], M from
    probs[29:], and 0 at the last age of life."""
    axis = AgeAxis(29)
    cells = {(s, x): 0.0 for s in Sex for x in axis.ages()}
    for x in range(29):
        cells[(Sex.FEMALE, x)], cells[(Sex.MALE, x)] = probs[x], probs[29 + x]
    return SurvivalSchedule(RegionId("X"), axis, cells)


def _pyramid_29(counts):
    female, male = dict(enumerate(counts[:30])), dict(enumerate(counts[30:]))
    return dense_pyramid(RegionId("X"), 0, AgeAxis(29), female=female, male=male)


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

    @given(
        probs=st.lists(_dyadic_probs, min_size=58, max_size=58),
        counts=st.lists(st.integers(min_value=0, max_value=15), min_size=60, max_size=60),
        a=st.integers(min_value=1, max_value=6),
        b=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_composition_exact_on_dyadic_schedules(self, probs, counts, a, b):
        sched, pop = _schedule_29(probs), _pyramid_29(counts)
        whole = survive_cohorts(pop, sched, a + b)
        parts = survive_cohorts(survive_cohorts(pop, sched, a), sched, b)
        assert whole.array.tobytes() == parts.array.tobytes()
        assert whole.time_label == parts.time_label == a + b

    @given(
        probs=st.lists(_any_probs, min_size=58, max_size=58),
        counts=st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False), min_size=60, max_size=60
        ),
        a=st.integers(min_value=1, max_value=6),
        b=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_composition_close_on_arbitrary_schedules(self, probs, counts, a, b):
        sched, pop = _schedule_29(probs), _pyramid_29(counts)
        whole = survive_cohorts(pop, sched, a + b)
        parts = survive_cohorts(survive_cohorts(pop, sched, a), sched, b)
        assert whole.array == pytest.approx(parts.array, rel=1e-12, abs=1e-300)

    @given(
        probs=st.lists(_any_probs, min_size=58, max_size=58),
        count=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        age=st.integers(min_value=0, max_value=5),
        sex=st.sampled_from(list(Sex)),
    )
    @settings(max_examples=100, deadline=None)
    def test_cohort_nonincreasing_in_span(self, probs, count, age, sex):
        sched = _schedule_29(probs)
        pop = AgePyramid(RegionId("X"), 0, sched.axis, {(sex, age): count})
        cohort = [count] + [
            survive_cohorts(pop, sched, span).count(sex, age + span)
            for span in range(1, 29 - age + 1)
        ]
        assert all(x >= y for x, y in zip(cohort, cohort[1:]))

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

    @pytest.mark.parametrize("span", [1.5, np.float64(1.0), "1"])
    def test_non_integer_span_rejected(self, region, axis, unit_survival, span):
        pop = dense_pyramid(region, 0, axis, female={20: 1.0})
        with pytest.raises(DomainError) as err:
            survive_cohorts(pop, unit_survival, span)
        assert str(err.value) == f"span must be an integer, got {span!r}"

    def test_numpy_integer_span_accepted(self, region, axis, unit_survival):
        pop = dense_pyramid(region, 2011, axis, female={20: 1.0})
        out = survive_cohorts(pop, unit_survival, np.int64(2))
        assert out == survive_cohorts(pop, unit_survival, 2)
        assert out.time_label == 2013 and type(out.time_label) is int

    def test_output_is_dense_over_the_axis(self, region, axis, unit_survival):
        pop = AgePyramid(region, 2011, axis, {(Sex.FEMALE, 20): 7.0})
        out = survive_cohorts(pop, unit_survival, 2)
        assert out.present.all()
        assert out.count(Sex.FEMALE, 22) == out.total() == 7.0


class TestAgeGroupSurvivors:
    """The survivors of an age group are the sum of its survived cohorts."""

    def test_width_one_equals_single_cohort(self, region, axis):
        sched = SurvivalSchedule.flat(region, axis, 0.95)
        pop = dense_pyramid(region, 0, axis, female={20: 150.0})
        out = survive_cohorts(pop, sched, 5)
        assert out.count(Sex.FEMALE, 25) == pytest.approx(150.0 * 0.95**5, rel=1e-12)
        assert out.total() == out.count(Sex.FEMALE, 25)

    def test_identity_survival_preserves_group_total(self, region, axis, unit_survival):
        pop = dense_pyramid(region, 0, axis, female={20: 100.0, 21: 200.0, 22: 50.0})
        out = survive_cohorts(pop, unit_survival, 30)
        assert out.array[Sex.FEMALE.row, 50:53].tolist() == [100.0, 200.0, 50.0]

    def test_two_cell_hand_value(self, region, axis):
        # 100 * 0.81 + 200 * 0.81 = 243
        sched = SurvivalSchedule.flat(region, axis, 0.9)
        pop = dense_pyramid(region, 0, axis, female={20: 100.0, 21: 200.0})
        group = survive_cohorts(pop, sched, 2).array[Sex.FEMALE.row, 22:24].sum()
        assert group == pytest.approx(243.0, rel=1e-12)

    def test_equals_sum_of_survived_cohorts_both_sexes(self, region, axis):
        cells = {(s, a): 0.99 - a / 200.0 for s in Sex for a in axis.ages()}
        for a in axis.ages():
            cells[(Sex.MALE, a)] -= 0.004
        cells[(Sex.FEMALE, 100)] = cells[(Sex.MALE, 100)] = 0.0
        sched = SurvivalSchedule(region, axis, cells)
        pop = dense_pyramid(
            region,
            0,
            axis,
            female={30: 10.0, 31: 20.0, 32: 30.0, 33: 40.0},
            male={30: 5.0, 31: 15.0, 32: 25.0, 33: 35.0},
        )
        group = survive_cohorts(pop, sched, 6).array[:, 36:40].sum()
        independent_sum = sum(
            pop.count(sex, a) * multi_year_survival(sched, sex, a, 6)
            for sex in Sex
            for a in range(30, 34)
        )
        assert group == pytest.approx(independent_sum, rel=1e-12)

    def test_cohorts_past_the_last_age_are_gone(self, region, axis):
        # 95..97 reach 98..100 at 0.9**3; 98 would reach 101
        sched = SurvivalSchedule.flat(region, axis, 0.9)
        pop = dense_pyramid(region, 0, axis, female={95: 1.0, 96: 2.0, 97: 4.0, 98: 8.0})
        out = survive_cohorts(pop, sched, 3)
        assert out.array[Sex.FEMALE.row, 98:] == pytest.approx([0.729, 1.458, 2.916], rel=1e-12)
        assert out.total() == pytest.approx(7.0 * 0.729, rel=1e-12)


_counts = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


@st.composite
def projection_inputs(draw):
    """A densified sparse pyramid on an axis that holds ages 15..49, a
    schedule, fertility and a horizon of 0..30 years."""
    axis = AgeAxis(draw(st.integers(min_value=49, max_value=110)))
    region = RegionId("X")
    n = 2 * axis.n_ages
    counts = draw(st.lists(_counts, min_size=n, max_size=n))
    present = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cells = {
        (sex, x): counts[2 * x + sex.row]
        for sex in Sex
        for x in axis.ages()
        if present[2 * x + sex.row]
    }
    pop = AgePyramid(region, draw(st.integers(1900, 2100)), axis, cells).densified()
    probs = draw(st.lists(_any_probs, min_size=2 * axis.max_age, max_size=2 * axis.max_age))
    sched = {(s, x): 0.0 for s in Sex for x in axis.ages()}
    for x in range(axis.max_age):
        sched[(Sex.FEMALE, x)], sched[(Sex.MALE, x)] = probs[2 * x], probs[2 * x + 1]
    rates = draw(st.lists(st.floats(0.0, 0.5), min_size=35, max_size=35))
    fert = FertilityConfig(
        dict(enumerate(rates, start=15)),
        eligible_proportion=draw(st.floats(0.0, 1.0)),
        sex_ratio_at_birth=draw(st.floats(0.5, 2.0)),
    )
    horizon = draw(st.integers(min_value=0, max_value=30))
    return pop, SurvivalSchedule(region, axis, sched), fert, horizon


class TestProjectPopulation:
    @given(inputs=projection_inputs())
    @settings(max_examples=60, deadline=None)
    def test_frames_equal_the_plain_year_loop_bit_for_bit(self, inputs):
        pop, sched, fert, horizon = inputs
        counts = project_population(pop, sched, fert, horizon).counts
        expected = projection_oracle(pop, sched, fert, horizon)
        assert counts.shape == expected.shape
        assert counts.tobytes() == expected.tobytes()

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

    def test_negative_frame_index_counts_from_the_end(
        self, region, axis, unit_survival, fert_flat
    ):
        pop = dense_pyramid(region, 2011, axis, female={20: 10.0})
        series = project_population(pop, unit_survival, fert_flat, 3)
        assert series.frame(-1) == series.frames[3]
        assert series.frame(-1).time_label == 2014
        with pytest.raises(IndexError):
            series.frame(4)

    def test_series_counts_are_read_only(self, region, axis, unit_survival, fert_flat):
        pop = dense_pyramid(region, 2011, axis, female={20: 10.0})
        series = project_population(pop, unit_survival, fert_flat, 2)
        with pytest.raises(ValueError):
            series.counts[0, 0, 0] = 1.0

    def test_series_shape_checked(self, region):
        shape_error = r"\(horizon\+1, 2, 6\) array, got shape \(3, 2, 5\)$"
        with pytest.raises(DomainError, match=shape_error):
            ProjectionSeries(region, 2011, AgeAxis(5), np.zeros((3, 2, 5)))

    @pytest.mark.parametrize("horizon", [2.5, np.float64(2.0)])
    def test_non_integer_horizon_rejected(self, region, axis, unit_survival, fert_flat, horizon):
        pop = dense_pyramid(region, 2011, axis)
        with pytest.raises(DomainError) as err:
            project_population(pop, unit_survival, fert_flat, horizon)
        assert str(err.value) == f"horizon must be an integer, got {horizon!r}"

    def test_numpy_integer_horizon_accepted(self, region, axis, fert_flat):
        pop = dense_pyramid(region, 2011, axis, female={20: 10.0})
        sched = SurvivalSchedule.flat(region, axis, 0.9)
        series = project_population(pop, sched, fert_flat, np.int32(3))
        assert series.horizon == 3
        expected = project_population(pop, sched, fert_flat, 3).counts
        assert series.counts.tobytes() == expected.tobytes()

    def test_every_frame_and_step_is_read_only(self, region, axis, fert_flat, monkeypatch):
        # the pyramids that the per-year public steps take and return
        seen = []
        births, step = projection.project_births, projection.survive_cohorts

        def spy_births(pop, *args):
            seen.append(pop)
            return births(pop, *args)

        def spy_step(*args):
            seen.append(step(*args))
            return seen[-1]

        monkeypatch.setattr(projection, "project_births", spy_births)
        monkeypatch.setattr(projection, "survive_cohorts", spy_step)
        pop = dense_pyramid(region, 2011, axis, female={a: 10.0 + a for a in range(60)})
        sched = SurvivalSchedule.flat(region, axis, 0.9)
        series = project_population(pop, sched, fert_flat, 4)
        assert len(seen) == 8
        assert [p.time_label for p in seen[::2]] == [2011, 2012, 2013, 2014]
        assert [p.time_label for p in seen[1::2]] == [2012, 2013, 2014, 2015]
        for frame in seen + list(series.frames):
            assert not frame.array.flags.writeable
            assert not frame.present.flags.writeable
            assert frame.present.all()
        for k, frame in enumerate(seen[2::2], start=1):
            assert np.array_equal(frame.array, series.counts[k])
        assert not series.counts.flags.writeable

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
