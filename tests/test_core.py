import math

import numpy as np
import pytest

from uidforge import (
    AgeAxis,
    AgePyramid,
    DemandSeries,
    DomainError,
    FertilityConfig,
    Sex,
    StateFlows,
    StateRates,
    SurvivalSchedule,
    allocate_unknown_age,
    dual_system_estimate,
)
from uidforge.core import MAX_AGE_LIMIT, SEX_ROWS, Cells, _all_present
from conftest import dense_pyramid
from oracles import multi_year_survival


class TestAgeAxis:
    def test_defaults_to_omega_100(self):
        axis = AgeAxis()
        assert axis.max_age == 100
        assert axis.n_ages == 101
        assert list(axis.ages())[-1] == 100

    def test_contains_runs_from_zero_to_max_age(self):
        axis = AgeAxis(5)
        assert [axis.contains(a) for a in (-1, 0, 5, 6)] == [False, True, True, False]

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "100"])
    def test_rejects_bad_max_age(self, bad):
        with pytest.raises(DomainError):
            AgeAxis(bad)

    def test_max_age_ends_at_the_limit(self):
        assert MAX_AGE_LIMIT == 150 and AgeAxis(150).n_ages == 151
        with pytest.raises(DomainError, match=r"^max_age must be an integer in 1\.\.150, got 151$"):
            AgeAxis(151)


class TestSex:
    def test_rows_follow_sex_rows(self):
        assert SEX_ROWS == (Sex.FEMALE, Sex.MALE)
        assert (Sex.FEMALE.row, Sex.MALE.row) == (0, 1)


class TestSurvivalSchedule:
    def test_flat_forces_zero_at_last_age(self):
        axis = AgeAxis(10)
        sched = SurvivalSchedule.flat(axis, 0.9)
        assert sched.array[Sex.MALE.row, 0] == 0.9
        assert sched.array[Sex.FEMALE.row, 10] == 0.0

    def test_flat_puts_each_sex_in_its_row(self):
        sched = SurvivalSchedule.flat(AgeAxis(3), 0.9, 0.95)
        assert sched.array[Sex.MALE.row].tolist() == [0.9, 0.9, 0.9, 0.0]
        assert sched.array[Sex.FEMALE.row].tolist() == [0.95, 0.95, 0.95, 0.0]

    def test_missing_age_rejected(self):
        axis = AgeAxis(2)
        cells = {(sex, a): 0.5 for sex in Sex for a in (0, 2)}
        for sex in Sex:
            cells[(sex, 2)] = 0.0
        with pytest.raises(DomainError, match="missing"):
            SurvivalSchedule(axis, cells)

    def test_probability_bounds_checked(self):
        axis = AgeAxis(1)
        cells = {(s, a): 0.0 for s in Sex for a in (0, 1)}
        cells[(Sex.MALE, 0)] = 1.5
        with pytest.raises(DomainError, match="not a probability"):
            SurvivalSchedule(axis, cells)

    def test_nonzero_at_omega_rejected(self):
        axis = AgeAxis(1)
        cells = {(s, a): 1.0 for s in Sex for a in (0, 1)}
        with pytest.raises(DomainError, match="last age"):
            SurvivalSchedule(axis, cells)


class TestFertilityConfig:
    def test_male_share_is_ratio_over_one_plus_ratio(self):
        cfg = FertilityConfig({}, 1.0, 1.05)
        assert cfg.male_share == 1.05 / 2.05
        assert cfg.male_share is cfg.male_share

    def test_nonzero_rate_outside_band_rejected(self):
        with pytest.raises(DomainError, match="outside"):
            FertilityConfig({14: 0.1}, 1.0, 1.05)

    def test_zero_rate_outside_band_allowed(self):
        cfg = FertilityConfig({10: 0.0, 20: 0.1}, 1.0, 1.05)
        assert cfg.rate(10) == 0.0
        assert cfg.rate(20) == 0.1
        assert cfg.rate(33) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eligible_proportion=-0.1),
            dict(eligible_proportion=1.1),
            dict(sex_ratio_at_birth=0.0),
            dict(sex_ratio_at_birth=-1.0),
            dict(infant_mortality=-5.0),
            dict(infant_mortality=1001.0),
        ],
    )
    def test_scalar_bounds(self, kwargs):
        base = dict(eligible_proportion=0.5, sex_ratio_at_birth=1.05, infant_mortality=60.0)
        base.update(kwargs)
        with pytest.raises(DomainError):
            FertilityConfig({20: 0.1}, **base)

    def test_male_share(self):
        cfg = FertilityConfig.flat(0.1, 1.0, sex_ratio_at_birth=1.0)
        assert cfg.male_share == 0.5

    def test_band_rates_run_over_ages_15_to_49(self):
        cfg = FertilityConfig({15: 0.01, 30: 0.2, 49: 0.03}, 1.0, 1.05)
        band = cfg.band_rates
        assert band.shape == (35,)
        assert (band[0], band[15], band[34]) == (0.01, 0.2, 0.03)
        assert np.count_nonzero(band) == 3
        with pytest.raises(ValueError):
            band[0] = 1.0


class TestMultiYearSurvival:
    """The cell-by-cell reference that the projection tests compare
    :func:`survive_cohorts` against."""

    def test_span_zero_is_empty_product(self, axis):
        sched = SurvivalSchedule.flat(axis, 0.7)
        assert multi_year_survival(sched, Sex.MALE, 30, 0) == 1.0

    def test_identity_survival(self, axis):
        sched = SurvivalSchedule.flat(axis, 1.0)
        for age in (0, 17, 80):
            assert multi_year_survival(sched, Sex.FEMALE, age, 10) == 1.0

    def test_three_year_product(self, axis):
        # direct product: 0.9 * 0.9 * 0.9
        sched = SurvivalSchedule.flat(axis, 0.9)
        got = multi_year_survival(sched, Sex.MALE, 20, 3)
        assert got == pytest.approx(0.729, rel=1e-12)

    def test_age_out_of_axis(self, axis):
        sched = SurvivalSchedule.flat(axis, 0.9)
        with pytest.raises(DomainError):
            multi_year_survival(sched, Sex.MALE, 101, 1)
        with pytest.raises(DomainError):
            multi_year_survival(sched, Sex.MALE, -1, 1)

    def test_span_past_last_age(self, axis):
        sched = SurvivalSchedule.flat(axis, 0.9)
        with pytest.raises(DomainError):
            multi_year_survival(sched, Sex.MALE, 95, 7)
        # to exactly omega+1 is allowed and passes through s(omega) = 0
        assert multi_year_survival(sched, Sex.MALE, 95, 6) == 0.0

    def test_negative_span(self, axis):
        sched = SurvivalSchedule.flat(axis, 0.9)
        with pytest.raises(DomainError):
            multi_year_survival(sched, Sex.MALE, 20, -1)


class TestPyramidBasics:
    def test_totals_by_sex(self, region):
        axis = AgeAxis(3)
        pyr = dense_pyramid(region, 2011, axis, female={0: 5.0, 2: 7.0}, male={1: 11.0})
        assert pyr.total(Sex.FEMALE) == 12.0
        assert pyr.total(Sex.MALE) == 11.0
        assert pyr.total() == 23.0

    def test_missing_cells_read_as_zero(self, region):
        axis = AgeAxis(3)
        pyr = AgePyramid(region, 2011, axis, {(Sex.FEMALE, 2): 9.0})
        assert pyr.count(Sex.MALE, 1) == 0.0
        assert not pyr.present[Sex.MALE.row, 1]

    def test_densified_fills_zeros(self, region):
        axis = AgeAxis(3)
        pyr = AgePyramid(region, 2011, axis, {(Sex.FEMALE, 2): 9.0})
        dense = pyr.densified()
        assert dense.present.all()
        assert dense.count(Sex.FEMALE, 2) == 9.0
        assert dense.total() == 9.0

    def test_negative_and_non_finite_counts_are_representable(self, region):
        # the loaders reject bad input; the container keeps what it is given
        cells = {(Sex.MALE, 1): -1.0, (Sex.FEMALE, 2): math.nan}
        pyr = AgePyramid(region, 2011, AgeAxis(3), cells)
        assert pyr.count(Sex.MALE, 1) == -1.0
        assert math.isnan(pyr.count(Sex.FEMALE, 2))

    def test_counts_hold_the_given_cells(self, region):
        cells = {(Sex.MALE, 0): 1.0, (Sex.FEMALE, 3): 2.0, (Sex.FEMALE, 1): 3.0}
        pyr = AgePyramid(region, 2011, AgeAxis(3), cells)
        assert pyr.array.tolist() == [[0.0, 3.0, 0.0, 2.0], [1.0, 0.0, 0.0, 0.0]]
        assert pyr.present.tolist() == [[False, True, False, True], [True, False, False, False]]
        assert len(pyr.counts) == 3

    def test_from_array_shape_checked(self, region):
        with pytest.raises(DomainError, match=r"must have shape \(2, 4\), got \(2, 3\)"):
            AgePyramid.from_array(region, 2011, AgeAxis(3), np.zeros((2, 3)))

    def test_total_adds_in_sex_then_age_order(self, region):
        # 1 + 1 + 1e16 is 1e16 + 2, but 1e16 + 1 + 1 rounds back to 1e16
        axis = AgeAxis(3)
        cells = {(Sex.FEMALE, 2): 1e16, (Sex.FEMALE, 1): 1.0, (Sex.FEMALE, 0): 1.0}
        pyr = AgePyramid(region, 2011, axis, cells)
        assert pyr.total(Sex.FEMALE) == pyr.total() == 1e16 + 2

    def test_cell_beyond_the_axis_rejected(self, region):
        with pytest.raises(DomainError, match=r"^cell \(M, 9\) lies beyond the axis 0\.\.3$"):
            AgePyramid(region, 2011, AgeAxis(3), {(Sex.FEMALE, 1): 2.0, (Sex.MALE, 9): 4.0})

    def test_pyramid_and_schedule_reject_an_off_axis_cell_alike(self, region):
        axis = AgeAxis(5)
        cells = {(sex, age): 0.5 for sex in Sex for age in axis.ages()}
        cells[(Sex.MALE, 5)] = cells[(Sex.FEMALE, 5)] = 0.0
        cells[(Sex.MALE, 9)] = 0.5
        with pytest.raises(DomainError) as pyramid_error:
            AgePyramid(region, 2011, axis, cells)
        with pytest.raises(DomainError) as schedule_error:
            SurvivalSchedule(axis, cells)
        assert str(pyramid_error.value) == str(schedule_error.value)
        assert str(schedule_error.value) == "cell (M, 9) lies beyond the axis 0..5"

    @pytest.mark.parametrize(
        "array, present, got",
        [
            (np.zeros((2, 50)), None, "float64 (2, 50) and bool (2, 50)"),
            (np.zeros((3, 6)), None, "float64 (3, 6) and bool (3, 6)"),
            (np.zeros((2, 6), dtype=np.float32), None, "float32 (2, 6) and bool (2, 6)"),
            (np.zeros((2, 6)), np.ones((2, 6), dtype=np.int64), "float64 (2, 6) and int64 (2, 6)"),
            (np.zeros((2, 6)), np.ones((2, 5), dtype=bool), "float64 (2, 6) and bool (2, 5)"),
        ],
        ids=["short", "three-rows", "float32", "int-mask", "short-mask"],
    )
    @pytest.mark.parametrize(
        "build",
        [
            lambda region, axis, cells: AgePyramid(region, 2011, axis, cells),
            lambda region, axis, cells: SurvivalSchedule(axis, cells),
        ],
        ids=["pyramid", "schedule"],
    )
    def test_cells_of_another_shape_or_dtype_rejected(self, region, build, array, present, got):
        # such cells used to fail later, in projection, with a numpy broadcast error
        with pytest.raises(DomainError) as err:
            build(region, AgeAxis(5), Cells(array, present))
        assert str(err.value) == (
            f"cells must be a float64 array and a bool mask of shape (2, 6), got {got}"
        )

    def test_count_reads_zero_for_an_absent_or_off_axis_cell(self, region):
        pyr = AgePyramid(region, 2011, AgeAxis(3), {(Sex.FEMALE, 1): 2.0})
        assert pyr.count(Sex.FEMALE, 1) == 2.0
        for sex, age in [(Sex.MALE, 1), (Sex.FEMALE, 9), (Sex.FEMALE, -1), (Sex.FEMALE, 4)]:
            assert pyr.count(sex, age) == 0.0
        assert len(pyr.counts) == 1

    def test_equal_by_value(self, region):
        axis = AgeAxis(3)
        pyr = AgePyramid(region, 2011, axis, {(Sex.FEMALE, 1): 2.0})
        assert pyr == AgePyramid(region, 2011, axis, {(Sex.FEMALE, 1): 2.0})
        assert pyr != AgePyramid(region, 2011, axis, {(Sex.FEMALE, 1): 3.0})
        assert pyr != AgePyramid(region, 2011, axis, {(Sex.FEMALE, 1): 2.0, (Sex.MALE, 0): 0.0})
        assert pyr != AgePyramid(region, 2011, AgeAxis(4), {(Sex.FEMALE, 1): 2.0})

    def test_non_number_cell_rejected(self, region):
        with pytest.raises(DomainError, match="not a number"):
            AgePyramid(region, 2011, AgeAxis(3), {(Sex.MALE, 1): "5"})

    @pytest.mark.parametrize("key", [(Sex.FEMALE, 2.0), ("F", 1), (None, 1)])
    def test_key_that_is_not_a_sex_and_integer_age_rejected(self, region, key):
        with pytest.raises(DomainError, match=r"is not a \(Sex, integer age\) pair"):
            AgePyramid(region, 2011, AgeAxis(3), {key: 1.0})

    def test_boolean_age_is_one_cell(self, region):
        pyr = AgePyramid(region, 2011, AgeAxis(3), {(Sex.FEMALE, True): 1.0})
        assert pyr.count(Sex.FEMALE, 1) == 1.0 and len(pyr.counts) == 1

    def test_numpy_scalar_cells_accepted(self, region):
        cells = {(Sex.MALE, 1): np.float32(0.5), (Sex.FEMALE, 2): np.int64(3)}
        pyr = AgePyramid(region, 2011, AgeAxis(3), cells)
        assert pyr.count(Sex.MALE, 1) == 0.5 and pyr.count(Sex.FEMALE, 2) == 3.0

    def test_counts_are_immutable(self, region):
        axis = AgeAxis(2)
        pyr = dense_pyramid(region, 2011, axis)
        with pytest.raises(TypeError):
            pyr.counts[(Sex.MALE, 0)] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            pyr.array[Sex.MALE.row, 0] = 5.0

    def test_dense_pyramid_equals_the_constructed_one(self, region):
        axis = AgeAxis(3)
        array = np.arange(8.0).reshape(2, 4)
        cells = {(sex, age): array[sex.row, age] for sex in Sex for age in axis.ages()}
        built = AgePyramid(region, 2011, axis, cells)
        dense = AgePyramid._dense(region, 2011, axis, array.copy())
        assert dense == built == AgePyramid.from_array(region, 2011, axis, array)
        assert dense != AgePyramid._dense(region, 2012, axis, array.copy())
        assert (dense.region, dense.time_label, dense.axis) == (region, 2011, axis)
        assert not dense.array.flags.writeable and not dense.present.flags.writeable
        assert dense.present is _all_present((2, 4))

    def test_cells_leave_every_array_read_only(self):
        shared = _all_present((2, 4))
        assert not shared.flags.writeable
        array, present = np.zeros((2, 4)), np.ones((2, 4), dtype=bool)
        Cells(array, present)
        assert not array.flags.writeable and not present.flags.writeable
        frozen = np.zeros((2, 4))
        frozen.flags.writeable = False
        cells = Cells(frozen)
        assert cells.array is frozen and cells.present is shared
        assert not frozen.flags.writeable


_STATE = "A"
_COUNTS = dict(
    births=1.0, deaths=1.0, interstate_in=1.0, interstate_out=1.0, immigration=1.0, emigration=1.0
)
_RATES = dict(population=1e6, birth_rate=0.02, death_rate=0.01, in_rate=0.0, out_rate=0.0)
_SERIES = dict(new_male=[1.0], new_female=[1.0], returned=[0.0])
_PYRAMID = dense_pyramid("A", 2011, AgeAxis(3), female={1: 1.0}, male={1: 1.0})

# (record.field or function.argument, build(value)) for every number the
# shared validator guards
_VALIDATED = (
    [(f"StateFlows.{n}", lambda v, n=n: StateFlows(_STATE, **{**_COUNTS, n: v})) for n in _COUNTS]
    + [(f"StateRates.{n}", lambda v, n=n: StateRates(_STATE, **{**_RATES, n: v})) for n in _RATES]
    + [
        (f"DemandSeries.{n}", lambda v, n=n: DemandSeries([2012], **{**_SERIES, n: [v]}))
        for n in _SERIES
    ]
    + [
        (f"allocate_unknown_age.{s.name}", lambda v, s=s: allocate_unknown_age(_PYRAMID, {s: v}))
        for s in Sex
    ]
    + [
        ("dual_system_estimate.first_list", lambda v: dual_system_estimate(v, 1, 1)),
        ("dual_system_estimate.second_list", lambda v: dual_system_estimate(1, v, 1)),
        ("dual_system_estimate.matched", lambda v: dual_system_estimate(1, 1, v)),
    ]
)


class TestFiniteNonNegative:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("build", [b for _, b in _VALIDATED], ids=[n for n, _ in _VALIDATED])
    def test_records_reject_non_finite(self, build, value):
        build(1.0)  # the same record with a finite value is valid
        with pytest.raises(DomainError, match="must be finite"):
            build(value)
