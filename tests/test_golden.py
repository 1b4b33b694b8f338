"""Byte-exact golden outputs of ``coverage`` and ``project`` on a small
three-region fixture.

The fixture is written by pure arithmetic (no RNG), so it is the same on
every platform: regions ``B2``, ``A1`` and ``C3`` on a 0..60 age axis,
their rows shuffled across regions, and ``C3`` without male ages 58..60
and the female age 60. The golden files in ``tests/data`` were written by
the program before pyramids and schedules were loaded straight into
arrays; any change to a byte of them is a change of behaviour.
"""

from pathlib import Path

import pytest

from uidforge.cli import main

DATA = Path(__file__).parent / "data"
MAX_AGE = 60
REGIONS = ("B2", "A1", "C3")
ABSENT = {("C3", "M", 58), ("C3", "M", 59), ("C3", "M", 60), ("C3", "F", 60)}


def _shuffled(rows):
    # a fixed permutation: 389 is prime and does not divide len(rows)
    return [rows[(i * 389) % len(rows)] for i in range(len(rows))]


def population_rows(regions=REGIONS):
    rows = []
    for r, code in enumerate(regions):
        for s, sex in enumerate("FM"):
            for age in range(MAX_AGE + 1):
                if (code, sex, age) not in ABSENT:
                    count = (1000 + 97 * ((5 * age + 11 * r + 3 * s) % 23)) / 3
                    rows.append(f"{code},{sex},{age},{count!r}")
    return rows


def survival_rows():
    rows = []
    for r, code in enumerate(REGIONS):
        for s, sex in enumerate("FM"):
            for age in range(MAX_AGE + 1):
                p = 0.0 if age == MAX_AGE else 1.0 - (3 + age + r + 2 * s) / 997
                rows.append(f"{code},{sex},{age},{p!r}")
    return rows


def write_fixture(root: Path) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    files = {
        "population.csv": ["region,sex,age,count", *_shuffled(population_rows())],
        "survival.csv": ["region,sex,age,p", *_shuffled(survival_rows())],
        "fertility.csv": ["age,rate"]
        + [f"{age},{(age - 14) * (50 - age) / 6000!r}" for age in range(15, 50)],
        # one region, its rows in (sex, age) order
        "single.csv": ["region,sex,age,count", *population_rows(("A1",))],
        "unknown.csv": ["sex,count", "M,30.25", "F,170.5"],
    }
    for name, lines in files.items():
        (root / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return root


def golden_runs(root: Path) -> dict:
    """Run the three golden commands on the fixture under ``root``;
    return golden file name -> the output the run wrote."""
    common = ["--max-age", str(MAX_AGE), "--base-year", "2011"]
    runs = {
        "golden_adjusted_population.csv": (
            ["coverage", "--population", root / "population.csv", "--omission", "25"],
            "adjusted_population.csv",
        ),
        "golden_projection.csv": (
            ["project", "--population", root / "population.csv",
             "--survival", root / "survival.csv", "--fertility", root / "fertility.csv",
             "--horizon", "3", "--sex-ratio", "1.06", "--eligible-proportion", "0.9"],
            "projection.csv",
        ),
        "golden_unknown_age.csv": (
            ["coverage", "--population", root / "single.csv", "--omission", "25",
             "--unknown-age", root / "unknown.csv"],
            "adjusted_population.csv",
        ),
    }
    out = {}
    for golden, (argv, written) in runs.items():
        out_dir = root / golden.removesuffix(".csv")
        assert main([*map(str, argv), *common, "--out", str(out_dir)]) == 0
        out[golden] = out_dir / written
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return golden_runs(write_fixture(tmp_path_factory.mktemp("golden")))


@pytest.mark.parametrize(
    "golden",
    ["golden_adjusted_population.csv", "golden_projection.csv", "golden_unknown_age.csv"],
)
def test_output_matches_golden(outputs, golden):
    assert outputs[golden].read_bytes() == (DATA / golden).read_bytes()


def test_fixture_has_sparse_region_and_interleaved_rows(tmp_path):
    lines = (write_fixture(tmp_path) / "population.csv").read_text().splitlines()[1:]
    codes = [line.split(",")[0] for line in lines]
    assert len(lines) == 3 * 2 * (MAX_AGE + 1) - len(ABSENT)
    # the regions come in short runs, not one block each
    assert sum(a != b for a, b in zip(codes, codes[1:])) > 50
