import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uidforge import (
    AgeAxis,
    AgePyramid,
    AllocationError,
    DomainError,
    Sex,
    UndefinedEstimateError,
    allocate_unknown_age,
    apply_omission_adjustment,
    dual_system_estimate,
)
from conftest import dense_pyramid


def expected_dual_system_lists(true_total, p1, p2):
    # exact-expectation enumeration of a two-list capture experiment
    # with independent capture probabilities
    n1 = true_total * p1
    n2 = true_total * p2
    matched = true_total * p1 * p2
    return n1, n2, matched


class TestDualSystemEstimate:
    def test_complete_overlap_returns_list_size(self):
        assert dual_system_estimate(500, 500, 500) == 500.0

    def test_nine_hundred_eight_hundred(self):
        # expectation oracle: 1000 people, capture probs 0.9 and 0.8
        n1, n2, m = expected_dual_system_lists(1000, 0.9, 0.8)
        assert (n1, n2, m) == (900.0, 800.0, 720.0)
        assert dual_system_estimate(900, 800, 720) == 1000.0

    def test_no_overlap_is_undefined(self):
        with pytest.raises(UndefinedEstimateError):
            dual_system_estimate(10, 10, 0)

    def test_matched_beyond_smaller_list_rejected(self):
        with pytest.raises(DomainError):
            dual_system_estimate(10, 20, 11)

    def test_estimate_at_least_larger_list(self):
        for n1, n2, m in [(900, 800, 720), (50, 40, 10), (1000, 10, 3)]:
            assert dual_system_estimate(n1, n2, m) >= max(n1, n2)

    @given(n=st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_identity_lists(self, n):
        assert dual_system_estimate(n, n, n) == float(n)

    def test_chapman_correction(self):
        got = dual_system_estimate(900, 800, 720, chapman=True)
        assert got == pytest.approx(901 * 801 / 721 - 1, rel=1e-12)

    def test_nonpositive_lists_rejected(self):
        with pytest.raises(DomainError, match="both list sizes must be positive"):
            dual_system_estimate(0, 10, 0)


class TestOmissionAdjustment:
    def test_zero_rate_is_identity(self, region, axis):
        pyr = dense_pyramid(region, 2011, axis, female={20: 980.0})
        out = apply_omission_adjustment(pyr, 0.0)
        assert out.counts == pyr.counts

    def test_twenty_per_thousand(self, region, axis):
        pyr = dense_pyramid(region, 2011, axis, female={20: 980000.0})
        out = apply_omission_adjustment(pyr, 20.0)
        assert out.total() == pytest.approx(1_000_000.0, rel=1e-12)
        assert out.present.all()

    def test_sparse_pyramid_stays_sparse(self, region, axis):
        pyr = AgePyramid(region, 2011, axis, {(Sex.FEMALE, 20): 980.0})
        out = apply_omission_adjustment(pyr, 20.0)
        assert np.array_equal(out.present, pyr.present)
        assert len(out.counts) == 1
        assert out.count(Sex.FEMALE, 20) == pytest.approx(1000.0, rel=1e-12)

    def test_fortynine_per_thousand(self, region, axis):
        pyr = dense_pyramid(region, 2011, axis, male={30: 951000.0})
        out = apply_omission_adjustment(pyr, 49.0)
        assert out.total() == pytest.approx(1_000_000.0, rel=1e-12)

    def test_totals_strictly_increase(self, region, axis):
        pyr = dense_pyramid(region, 2011, axis, female={20: 10.0}, male={40: 5.0})
        out = apply_omission_adjustment(pyr, 20.0)
        assert out.total() > pyr.total()

    def test_rate_bounds(self, region, axis):
        pyr = dense_pyramid(region, 2011, axis, female={20: 980.0})
        for rate in (1000.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match=re.escape("must lie in [0, 1000)")):
                apply_omission_adjustment(pyr, rate)

    def test_inversion_round_trip_over_full_rate_range(self, region):
        axis = AgeAxis(5)
        pyr = dense_pyramid(region, 2011, axis, female={2: 12345.678}, male={4: 9.25})
        for rate in range(1, 1000):
            adjusted = apply_omission_adjustment(pyr, float(rate))
            back = adjusted.total() * (1.0 - rate / 1000.0)
            assert abs(back - pyr.total()) / pyr.total() < 1e-9


class TestAllocateUnknownAge:
    def test_no_unknowns_is_identity(self, region, axis):
        pyr = dense_pyramid(region, 2011, axis, female={20: 100.0})
        out = allocate_unknown_age(pyr, {})
        assert out.counts == pyr.counts

    def test_even_split(self, region, axis):
        pyr = dense_pyramid(region, 2011, axis, female={20: 500.0, 30: 500.0})
        out = allocate_unknown_age(pyr, {Sex.FEMALE: 100.0})
        assert out.count(Sex.FEMALE, 20) == pytest.approx(550.0, rel=1e-12)
        assert out.count(Sex.FEMALE, 30) == pytest.approx(550.0, rel=1e-12)
        assert out.total(Sex.FEMALE) == pytest.approx(1100.0, rel=1e-12)

    def test_degenerate_distribution_takes_everything(self, region, axis):
        pyr = dense_pyramid(region, 2011, axis, male={40: 250.0})
        out = allocate_unknown_age(pyr, {Sex.MALE: 50.0})
        assert out.count(Sex.MALE, 40) == pytest.approx(300.0, rel=1e-12)

    def test_unknowns_without_known_mass_rejected(self, region, axis):
        pyr = dense_pyramid(region, 2011, axis, female={20: 10.0})
        with pytest.raises(AllocationError):
            allocate_unknown_age(pyr, {Sex.MALE: 5.0})

    def test_proportions_preserved(self, region, axis):
        female = {15: 7.0, 22: 13.0, 31: 41.0, 64: 9.0}
        pyr = dense_pyramid(region, 2011, axis, female=female)
        out = allocate_unknown_age(pyr, {Sex.FEMALE: 123.0})
        before_total = pyr.total(Sex.FEMALE)
        after_total = out.total(Sex.FEMALE)
        for age, count in female.items():
            assert out.count(Sex.FEMALE, age) / after_total == pytest.approx(
                count / before_total, rel=1e-12
            )
        assert after_total == pytest.approx(before_total + 123.0, rel=1e-9)

    def test_only_sexes_with_unknowns_touched(self, region, axis):
        pyr = dense_pyramid(region, 2011, axis, female={20: 10.0}, male={20: 10.0})
        out = allocate_unknown_age(pyr, {Sex.FEMALE: 2.0})
        assert out.count(Sex.MALE, 20) == 10.0

    def test_key_that_is_not_a_sex_is_ignored(self, region, axis):
        pyr = dense_pyramid(region, 2011, axis, female={20: 10.0})
        out = allocate_unknown_age(pyr, {"M": 5.0, "F": -1.0, Sex.FEMALE: 2.0})
        assert out.counts == allocate_unknown_age(pyr, {Sex.FEMALE: 2.0}).counts

    def test_sparse_pyramid_stays_sparse(self, region, axis):
        cells = {(Sex.FEMALE, 20): 30.0, (Sex.FEMALE, 40): 10.0, (Sex.MALE, 5): 4.0}
        pyr = AgePyramid(region, 2011, axis, cells)
        out = allocate_unknown_age(pyr, {Sex.FEMALE: 8.0, Sex.MALE: 1.0})
        assert np.array_equal(out.present, pyr.present)
        assert len(out.counts) == len(pyr.counts) == 3
        assert out.total() == pytest.approx(53.0, rel=1e-12)


class TestRegionPartitionCommutation:
    def test_operations_commute_with_partitioning(self, axis):
        east = dense_pyramid("E", 2011, axis, female={20: 400.0, 30: 100.0})
        west = dense_pyramid("W", 2011, axis, female={20: 250.0, 40: 350.0})
        merged = dense_pyramid("EW", 2011, axis, female={20: 650.0, 30: 100.0, 40: 350.0})

        def process(pyramid, unknown):
            return allocate_unknown_age(
                apply_omission_adjustment(pyramid, 35.0), {Sex.FEMALE: unknown}
            )

        # the regions share the rate; the unknown count is split in
        # proportion to each region's adjusted share of the total
        east_adj = apply_omission_adjustment(east, 35.0)
        west_adj = apply_omission_adjustment(west, 35.0)
        share_east = east_adj.total() / (east_adj.total() + west_adj.total())
        separate = process(east, 60.0 * share_east).total() + process(
            west, 60.0 * (1 - share_east)
        ).total()
        union = process(merged, 60.0).total()
        assert separate == pytest.approx(union, rel=1e-9)
