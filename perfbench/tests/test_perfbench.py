"""Tests for the benchmark's own code: generator determinism, oracle
checks that reject perturbed outputs, self-time arithmetic, and the
metric lists in BENCHMARK.json."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from uidforge import cli  # noqa: E402


def small_job(workload, tmp_path, seed=7, index=3):
    if workload == "districts-project":
        return gen.districts_job(seed, index, tmp_path / "job", n=6)
    return gen.make_job(workload, seed, index, tmp_path / "job")


def file_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    a = small_job(workload, tmp_path / "a")
    b = small_job(workload, tmp_path / "b")
    other = small_job(workload, tmp_path / "c", seed=8)
    assert file_bytes(a.workdir) == file_bytes(b.workdir)
    assert file_bytes(a.workdir) != file_bytes(other.workdir)


def test_some_districts_have_sparse_top_ages(tmp_path):
    job = gen.make_job("districts-project", 1, 0, tmp_path / "job")
    present = job.expect["present"]
    sparse = ~present.all(axis=(1, 2))
    assert 0 < sparse.sum() < 0.15 * len(sparse)
    assert present[:, :, :96].all()


def test_national_jobs_rotate_policy_and_flow_schema(tmp_path):
    pairs = set()
    for index in range(6):
        job = gen.make_job("national-demand", 1, index, tmp_path / f"j{index}")
        flows = (job.workdir / "flows.csv").read_text().splitlines()[0]
        pairs.add((job.expect["policy"], flows.split(",")[1]))
    assert len(pairs) == 6


def run_job(job):
    for argv in job.steps:
        assert cli.main(argv) == 0
    return [oracle.check_step(job, step) for step in range(len(job.steps))]


def scale_column(path: Path, row: int, column: int, factor: float):
    lines = path.read_text().splitlines()
    fields = lines[row].split(",")
    fields[column] = repr(float(fields[column]) * factor)
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


# (workload, step, output key, data row, column, factor)
PERTURBATIONS = [
    ("districts-project", 0, "adjusted_csv", 5, 3, 1.0 + 1e-9),
    ("districts-project", 1, "projection_csv", 4000, 4, 1.0 + 1e-6),
    ("national-demand", 0, "demand_csv", 40, 1, 1.001),
    ("national-demand", 0, "demand_csv", 70, 3, 1.001),
    ("posterior-estimate", 0, "posterior_csv", 1, 0, 1.02),
]


@pytest.mark.parametrize("workload,step,key,row,column,factor", PERTURBATIONS)
def test_oracle_accepts_real_output_and_rejects_perturbed(
    workload, step, key, row, column, factor, tmp_path
):
    job = small_job(workload, tmp_path)
    assert run_job(job) == [[] for _ in job.steps]
    scale_column(job.expect[key], row, column, factor)
    assert oracle.check_step(job, step)


def test_demand_full_policy_returns_are_a_lower_bound(tmp_path):
    job = small_job("national-demand", tmp_path, index=2)
    assert job.expect["policy"] == "full"
    run_job(job)
    scale_column(job.expect["demand_csv"], 10, 3, 1.5)
    assert oracle.check_step(job, 0) == []
    scale_column(job.expect["demand_csv"], 10, 3, 0.5)
    assert oracle.check_step(job, 0)


def test_oracle_rejects_missing_projection_rows(tmp_path):
    job = small_job("districts-project", tmp_path)
    run_job(job)
    path = job.expect["projection_csv"]
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert oracle.check_step(job, 1)


def test_self_time_on_synthetic_span_tree():
    # root 0..10 with children 1..3 and 2..6 (overlapping, union 1..6) and
    # 8..12 (clipped to 8..10); the first child has a grandchild 1.5..2.5
    tree = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 3.0, 0, 0),
        ("b", 2.0, 6.0, 0, 0),
        ("c", 8.0, 12.0, 0, 0),
        ("g", 1.5, 2.5, 1, 0),
        ("other", 20.0, 21.0, -1, 1),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.0, 4.0, 4.0, 1.0, 1.0])
    totals = spans.self_by_name(tree + [("a", 30.0, 30.5, -1, 2)])
    assert totals["a"] == pytest.approx((1.5, 2))


def test_tracer_spans_nest_and_account_for_the_command(tmp_path):
    import uidforge.core
    import uidforge.ledger
    import uidforge.projection

    modules = {m.__name__: m for m in (cli, uidforge.core, uidforge.ledger, uidforge.projection)}
    original = cli.project_population
    tracer = spans.Tracer(modules)
    tracer.install()
    try:
        job = small_job("districts-project", tmp_path)
        tracer.command = 0
        run_job(job)
    finally:
        tracer.uninstall()
    assert cli.project_population is original
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "csvio.load", "csvio.emit", "coverage.adjust", "core.densify",
            "projection.project", "projection.step", "projection.births"} <= names
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.main", "cli.main"]
    own = sum(spans.self_times(tracer.spans))
    assert own == pytest.approx(sum(s[2] - s[1] for s in roots), rel=1e-9)
    assert tracer.counts["coverage.cells_adjusted"] == job.expect["present"].sum()


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v[0] for k, v in run.END_TO_END.items()
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v[0] for k, v in run.PER_LAYER.items()
    }
    assert set(run.SPAN_METRIC.values()) <= set(run.PER_LAYER)
