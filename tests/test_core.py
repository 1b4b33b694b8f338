import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uidforge import (
    AgeAxis,
    AgePyramid,
    CoverageConfig,
    DemandRow,
    DomainError,
    FertilityConfig,
    RegionId,
    RegionLevel,
    Sex,
    StateFlows,
    StateRates,
    SurvivalSchedule,
    multi_year_survival,
    validate_pyramid,
)
from conftest import dense_pyramid


class TestAgeAxis:
    def test_defaults_to_omega_100(self):
        axis = AgeAxis()
        assert axis.max_age == 100
        assert axis.n_ages == 101
        assert list(axis.ages())[-1] == 100

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "100"])
    def test_rejects_bad_max_age(self, bad):
        with pytest.raises(DomainError):
            AgeAxis(bad)


class TestRegionId:
    def test_levels(self):
        assert RegionId("WB", RegionLevel.STATE).level is RegionLevel.STATE

    def test_empty_code_rejected(self):
        with pytest.raises(DomainError):
            RegionId("")


class TestSurvivalSchedule:
    def test_flat_forces_zero_at_last_age(self, region):
        axis = AgeAxis(10)
        sched = SurvivalSchedule.flat(region, axis, 0.9)
        assert sched.prob(Sex.MALE, 0) == 0.9
        assert sched.prob(Sex.FEMALE, 10) == 0.0

    def test_missing_age_rejected(self, region):
        axis = AgeAxis(2)
        cells = {(sex, a): 0.5 for sex in Sex for a in (0, 2)}
        for sex in Sex:
            cells[(sex, 2)] = 0.0
        with pytest.raises(DomainError, match="missing"):
            SurvivalSchedule(region, axis, cells)

    def test_probability_bounds_checked(self, region):
        axis = AgeAxis(1)
        cells = {(s, a): 0.0 for s in Sex for a in (0, 1)}
        cells[(Sex.MALE, 0)] = 1.5
        with pytest.raises(DomainError, match="not a probability"):
            SurvivalSchedule(region, axis, cells)

    def test_nonzero_at_omega_rejected(self, region):
        axis = AgeAxis(1)
        cells = {(s, a): 1.0 for s in Sex for a in (0, 1)}
        with pytest.raises(DomainError, match="last age"):
            SurvivalSchedule(region, axis, cells)


class TestFertilityConfig:
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


class TestMultiYearSurvival:
    def test_span_zero_is_empty_product(self, region, axis):
        sched = SurvivalSchedule.flat(region, axis, 0.7)
        assert multi_year_survival(sched, Sex.MALE, 30, 0) == 1.0

    def test_identity_survival(self, region, axis):
        sched = SurvivalSchedule.flat(region, axis, 1.0)
        for age in (0, 17, 80):
            assert multi_year_survival(sched, Sex.FEMALE, age, 10) == 1.0

    def test_three_year_product(self, region, axis):
        # direct product: 0.9 * 0.9 * 0.9
        sched = SurvivalSchedule.flat(region, axis, 0.9)
        got = multi_year_survival(sched, Sex.MALE, 20, 3)
        assert got == pytest.approx(0.729, rel=1e-12)

    def test_age_out_of_axis(self, region, axis):
        sched = SurvivalSchedule.flat(region, axis, 0.9)
        with pytest.raises(DomainError):
            multi_year_survival(sched, Sex.MALE, 101, 1)
        with pytest.raises(DomainError):
            multi_year_survival(sched, Sex.MALE, -1, 1)

    def test_span_past_last_age(self, region, axis):
        sched = SurvivalSchedule.flat(region, axis, 0.9)
        with pytest.raises(DomainError):
            multi_year_survival(sched, Sex.MALE, 95, 7)
        # to exactly omega+1 is allowed and passes through s(omega) = 0
        assert multi_year_survival(sched, Sex.MALE, 95, 6) == 0.0

    def test_negative_span(self, region, axis):
        sched = SurvivalSchedule.flat(region, axis, 0.9)
        with pytest.raises(DomainError):
            multi_year_survival(sched, Sex.MALE, 20, -1)


# dyadic probabilities with <= 4 mantissa bits: products of up to 12 of
# them are exact in double precision, so composition can be checked
# bit-for-bit rather than approximately
_dyadic_probs = st.integers(min_value=0, max_value=16).map(lambda i: i / 16.0)


class TestCompositionProperty:
    @given(
        probs=st.lists(_dyadic_probs, min_size=30, max_size=30),
        age=st.integers(min_value=0, max_value=10),
        a=st.integers(min_value=0, max_value=6),
        b=st.integers(min_value=0, max_value=6),
        sex=st.sampled_from(list(Sex)),
    )
    @settings(max_examples=200, deadline=None)
    def test_composition_exact_on_dyadic_schedules(self, probs, age, a, b, sex):
        axis = AgeAxis(29)
        region = RegionId("X")
        cells = {}
        for s in Sex:
            for x in range(30):
                cells[(s, x)] = probs[x] if x < 29 else 0.0
        sched = SurvivalSchedule(region, axis, cells)
        whole = multi_year_survival(sched, sex, age, a + b)
        parts = multi_year_survival(sched, sex, age, a) * multi_year_survival(
            sched, sex, age + a, b
        )
        assert whole == parts

    @given(
        probs=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=30, max_size=30
        ),
        age=st.integers(min_value=0, max_value=10),
        a=st.integers(min_value=0, max_value=6),
        b=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_composition_close_on_arbitrary_schedules(self, probs, age, a, b):
        axis = AgeAxis(29)
        cells = {}
        for s in Sex:
            for x in range(30):
                cells[(s, x)] = probs[x] if x < 29 else 0.0
        sched = SurvivalSchedule(RegionId("X"), axis, cells)
        whole = multi_year_survival(sched, Sex.MALE, age, a + b)
        parts = multi_year_survival(sched, Sex.MALE, age, a) * multi_year_survival(
            sched, Sex.MALE, age + a, b
        )
        assert whole == pytest.approx(parts, rel=1e-12, abs=1e-300)

    @given(
        probs=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=30, max_size=30
        ),
        age=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_nonincreasing_in_span(self, probs, age):
        axis = AgeAxis(29)
        cells = {}
        for s in Sex:
            for x in range(30):
                cells[(s, x)] = probs[x] if x < 29 else 0.0
        sched = SurvivalSchedule(RegionId("X"), axis, cells)
        values = [
            multi_year_survival(sched, Sex.FEMALE, age, span)
            for span in range(0, 29 - age + 1)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestValidatePyramid:
    def test_valid_pyramid_has_empty_report(self, region):
        axis = AgeAxis(5)
        pyr = dense_pyramid(region, 2011, axis, female={2: 10.0}, male={3: 4.0})
        assert validate_pyramid(pyr, axis) == []

    def test_negative_count_reported_with_cell(self, region):
        axis = AgeAxis(5)
        pyr = dense_pyramid(region, 2011, axis)
        cells = dict(pyr.counts)
        cells[(Sex.MALE, 5)] = -1.0
        bad = AgePyramid(region, 2011, axis, cells)
        report = validate_pyramid(bad, axis)
        assert len(report) == 1
        assert "negative" in report[0] and "M" in report[0] and "5" in report[0]

    def test_missing_cell_reported(self, region):
        axis = AgeAxis(100)
        pyr = dense_pyramid(region, 2011, axis)
        cells = dict(pyr.counts)
        del cells[(Sex.FEMALE, 99)]
        report = validate_pyramid(AgePyramid(region, 2011, axis, cells), axis)
        assert report == ["missing cell: sex=F age=99"]

    def test_age_beyond_axis_reported(self, region):
        axis = AgeAxis(5)
        pyr = dense_pyramid(region, 2011, axis)
        cells = dict(pyr.counts)
        cells[(Sex.MALE, 9)] = 1.0
        report = validate_pyramid(AgePyramid(region, 2011, axis, cells), axis)
        assert any("age beyond axis" in line for line in report)

    def test_nonfinite_reported(self, region):
        axis = AgeAxis(2)
        pyr = dense_pyramid(region, 2011, axis)
        cells = dict(pyr.counts)
        cells[(Sex.FEMALE, 1)] = math.nan
        report = validate_pyramid(AgePyramid(region, 2011, axis, cells), axis)
        assert any("non-finite" in line for line in report)


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
        assert not pyr.has_cell(Sex.MALE, 1)

    def test_densified_fills_zeros(self, region):
        axis = AgeAxis(3)
        pyr = AgePyramid(region, 2011, axis, {(Sex.FEMALE, 2): 9.0})
        dense = pyr.densified()
        assert validate_pyramid(dense, axis) == []
        assert dense.count(Sex.FEMALE, 2) == 9.0
        assert dense.total() == 9.0

    def test_total_adds_in_sex_then_age_order(self, region):
        # 1 + 1 + 1e16 is 1e16 + 2, but 1e16 + 1 + 1 rounds back to 1e16
        axis = AgeAxis(3)
        cells = {(Sex.FEMALE, 2): 1e16, (Sex.FEMALE, 1): 1.0, (Sex.FEMALE, 0): 1.0}
        pyr = AgePyramid(region, 2011, axis, cells)
        assert pyr.total(Sex.FEMALE) == pyr.total() == 1e16 + 2

    def test_cells_beyond_the_axis_are_kept_apart(self, region):
        axis = AgeAxis(3)
        pyr = AgePyramid(region, 2011, axis, {(Sex.MALE, 9): 4.0, (Sex.FEMALE, 1): 2.0})
        assert pyr.has_cell(Sex.MALE, 9) and pyr.count(Sex.MALE, 9) == 4.0
        assert list(pyr.counts) == [(Sex.FEMALE, 1), (Sex.MALE, 9)]
        assert pyr.array.sum() == pyr.total() == 2.0
        assert pyr.present.sum() == 1 and len(pyr.counts) == 2

    def test_non_number_cell_rejected(self, region):
        with pytest.raises(DomainError, match="not a number"):
            AgePyramid(region, 2011, AgeAxis(3), {(Sex.MALE, 1): "5"})

    def test_numpy_scalar_cells_accepted(self, region):
        cells = {(Sex.MALE, 1): np.float32(0.5), (Sex.FEMALE, 2): np.int64(3)}
        pyr = AgePyramid(region, 2011, AgeAxis(3), cells)
        assert pyr.count(Sex.MALE, 1) == 0.5 and pyr.count(Sex.FEMALE, 2) == 3.0

    def test_counts_are_immutable(self, region):
        axis = AgeAxis(2)
        pyr = dense_pyramid(region, 2011, axis)
        with pytest.raises(TypeError):
            pyr.counts[(Sex.MALE, 0)] = 5.0


_STATE = RegionId("A", RegionLevel.STATE)
_COUNTS = dict(
    births=1.0, deaths=1.0, interstate_in=1.0, interstate_out=1.0, immigration=1.0, emigration=1.0
)
_RATES = dict(population=1e6, birth_rate=0.02, death_rate=0.01, in_rate=0.0, out_rate=0.0)
_DEMAND = dict(new_cards_male=1.0, new_cards_female=1.0, returned_cards=0.0)

# (record.field, build(value)) for every number the shared validator guards
_VALIDATED = (
    [(f"StateFlows.{n}", lambda v, n=n: StateFlows(_STATE, **{**_COUNTS, n: v})) for n in _COUNTS]
    + [(f"StateRates.{n}", lambda v, n=n: StateRates(_STATE, **{**_RATES, n: v})) for n in _RATES]
    + [(f"DemandRow.{n}", lambda v, n=n: DemandRow(2012, **{**_DEMAND, n: v})) for n in _DEMAND]
    + [
        ("CoverageConfig.houseless_rural", lambda v: CoverageConfig(houseless_rural=v)),
        ("CoverageConfig.houseless_urban", lambda v: CoverageConfig(houseless_urban=v)),
        ("CoverageConfig.unknown_M", lambda v: CoverageConfig(unknown_age_counts={Sex.MALE: v})),
        ("CoverageConfig.unknown_F", lambda v: CoverageConfig(unknown_age_counts={Sex.FEMALE: v})),
    ]
)


class TestFiniteNonNegative:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("build", [b for _, b in _VALIDATED], ids=[n for n, _ in _VALIDATED])
    def test_records_reject_non_finite(self, build, value):
        build(1.0)  # the same record with a finite value is valid
        with pytest.raises(DomainError, match="must be finite"):
            build(value)
