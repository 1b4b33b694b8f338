"""Byte-exact golden outputs of ``coverage`` and ``project`` on a small
three-region fixture.

The fixture is written by pure arithmetic (no RNG), so it is the same on
every platform: regions ``B2``, ``A1`` and ``C3`` on a 0..60 age axis,
their rows shuffled across regions, and ``C3`` without male ages 58..60
and the female age 60. The golden files in ``tests/data`` were written by
the program before pyramids and schedules were loaded straight into
arrays; any change to a byte of them is a change of behaviour.

``projection.csv`` is formatted by forked workers, one per usable CPU,
or in-process on one CPU; the tests at the end force either driver and
a 9-region run that wraps the workers' in-flight window.
"""

import multiprocessing
import os
from pathlib import Path

import pytest

from uidforge import csvio
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


def survival_rows(regions=REGIONS):
    rows = []
    for r, code in enumerate(regions):
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


COMMON = ["--max-age", str(MAX_AGE), "--base-year", "2011"]


def project_argv(root: Path, population="population.csv", survival="survival.csv",
                 fertility="fertility.csv") -> list:
    return ["project", "--population", root / population, "--survival", root / survival,
            "--fertility", root / fertility,
            "--horizon", "3", "--sex-ratio", "1.06", "--eligible-proportion", "0.9"]


def golden_runs(root: Path) -> dict:
    """Run the three golden commands on the fixture under ``root``;
    return golden file name -> the output the run wrote."""
    runs = {
        "golden_adjusted_population.csv": (
            ["coverage", "--population", root / "population.csv", "--omission", "25"],
            "adjusted_population.csv",
        ),
        "golden_projection.csv": (project_argv(root), "projection.csv"),
        "golden_unknown_age.csv": (
            ["coverage", "--population", root / "single.csv", "--omission", "25",
             "--unknown-age", root / "unknown.csv"],
            "adjusted_population.csv",
        ),
    }
    out = {}
    for golden, (argv, written) in runs.items():
        out_dir = root / golden.removesuffix(".csv")
        assert main([*map(str, argv), *COMMON, "--out", str(out_dir)]) == 0
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


# ---------------------------------------------------------------- the forked writer

NINE = tuple(f"R{r}" for r in range(9))


def keep(sex, age, row):
    return row


def without_female_15_to_49(sex, age, row):
    return None if sex == "F" and 15 <= age <= 49 else row


def huge_at_20_to_22(sex, age, row):
    return f"R5,{sex},{age},1.7e308" if 20 <= age <= 22 else row


def write_nine_regions(root: Path, region5=keep) -> Path:
    """The golden fixture plus ``nine.csv`` and ``nine_survival.csv``, a
    population and survival file of regions R0..R8. Every population row
    of R5 passes through ``region5(sex, age, row)``, which may rewrite it
    or return None to leave it out."""
    write_fixture(root)
    population = []
    for row in population_rows(NINE):
        code, sex, age, _ = row.split(",")
        population.append(region5(sex, int(age), row) if code == "R5" else row)
    files = {
        "nine.csv": ["region,sex,age,count", *filter(None, population)],
        "nine_survival.csv": ["region,sex,age,p", *survival_rows(NINE)],
        # with three cells of 1.7e308, this rate makes more births than the largest float
        "high_fertility.csv": ["age,rate", *(f"{age},0.5" for age in range(15, 50))],
    }
    for name, lines in files.items():
        (root / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return root


def run_project(root: Path, out: Path, **files) -> int:
    return main([*map(str, project_argv(root, **files)), *COMMON, "--out", str(out)])


NINE_FILES = {"population": "nine.csv", "survival": "nine_survival.csv"}


def use_workers(monkeypatch, workers: int):
    """Make the projection writer see ``workers`` usable CPUs; 1 keeps it in-process."""
    monkeypatch.setattr(csvio, "_usable_cpus", lambda: workers)


def one_error_line_and_nothing_left(capsys, out: Path) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("uidforge project: error: "), err
    assert not os.path.lexists(out / "projection.csv")
    assert multiprocessing.active_children() == []
    return err


@pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "forked"])
def test_projection_matches_golden_with_either_driver(tmp_path, monkeypatch, workers):
    use_workers(monkeypatch, workers)
    assert run_project(write_fixture(tmp_path), tmp_path / "out") == 0
    golden = (DATA / "golden_projection.csv").read_bytes()
    assert (tmp_path / "out" / "projection.csv").read_bytes() == golden


def test_nine_regions_write_the_same_bytes_for_any_worker_count(tmp_path, monkeypatch):
    # R5 lacks its female reproductive ages, which are projected as 0
    root = write_nine_regions(tmp_path, without_female_15_to_49)
    written = {}
    for workers in (1, 2, 3):
        use_workers(monkeypatch, workers)
        out = tmp_path / f"out{workers}"
        assert run_project(root, out, **NINE_FILES) == 0
        written[workers] = (out / "projection.csv").read_bytes()
    assert written[2] == written[1] and written[3] == written[1]
    assert written[1].count(b"\n") == 1 + 9 * 4 * 2 * (MAX_AGE + 1)


@pytest.mark.parametrize("case", ["overflow", "write-error"])
def test_failure_while_workers_run_reads_as_in_process(tmp_path, monkeypatch, capsys, case):
    """A projection of R5 that overflows, or an output file that takes no
    bytes, fails part-way through the run with two workers formatting:
    exit 1 with the in-process driver's error line, no file and no
    worker left."""
    root = write_nine_regions(tmp_path, huge_at_20_to_22 if case == "overflow" else keep)
    files = dict(NINE_FILES, fertility="high_fertility.csv") if case == "overflow" else NINE_FILES
    out = tmp_path / "out"
    out.mkdir()
    errors = {}
    for workers in (2, 1):
        if case == "write-error":
            if not Path("/dev/full").exists():
                pytest.skip("needs /dev/full")
            (out / "projection.csv").symlink_to("/dev/full")
        use_workers(monkeypatch, workers)
        assert run_project(root, out, **files) == 1
        errors[workers] = one_error_line_and_nothing_left(capsys, out)
    assert errors[2] == errors[1]
    assert ("region R5 is not finite in year 2012" if case == "overflow" else "No space") in errors[2]


def test_worker_that_dies_fails_the_run_in_one_line(tmp_path, monkeypatch, capsys):
    root = write_nine_regions(tmp_path)
    parent, format_rows = os.getpid(), csvio._region_rows
    monkeypatch.setattr(
        csvio, "_region_rows",
        lambda *region: format_rows(*region) if os.getpid() == parent else os._exit(1),
    )
    use_workers(monkeypatch, 2)
    assert run_project(root, tmp_path / "out", **NINE_FILES) == 1
    err = one_error_line_and_nothing_left(capsys, tmp_path / "out")
    assert "projection formatting worker" in err and "exited with code 1" in err
