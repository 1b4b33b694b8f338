import multiprocessing

import pytest

from uidforge import AgeAxis, AgePyramid, RegionId, RegionLevel, Sex, SurvivalSchedule


def dense_pyramid(region, year, axis, female=None, male=None):
    """Pyramid with every cell present: zeros plus the given overrides."""
    cells = {(sex, age): 0.0 for sex in Sex for age in axis.ages()}
    for age, count in (female or {}).items():
        cells[(Sex.FEMALE, age)] = float(count)
    for age, count in (male or {}).items():
        cells[(Sex.MALE, age)] = float(count)
    return AgePyramid(region, year, axis, cells)


@pytest.fixture
def axis():
    return AgeAxis(100)


@pytest.fixture
def region():
    return RegionId("IN", RegionLevel.COUNTRY)


@pytest.fixture
def unit_survival(region, axis):
    return SurvivalSchedule.flat(region, axis, 1.0)


@pytest.fixture(autouse=True)
def no_child_processes_left():
    """Fail a test that leaves a child process alive, such as a
    projection formatting worker that was never reaped."""
    yield
    assert multiprocessing.active_children() == []


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {outcome}")
