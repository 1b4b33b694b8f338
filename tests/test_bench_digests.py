"""Byte-identity gate: the sha256 of every output of a fixed set of
benchmark jobs.

The jobs are the usual ones of ``perfbench/gen.py``: national-demand
seeds 1-2 jobs 0-5 (every policy with both flow schemas), posterior-
estimate seed 1 jobs 0-1 and districts-project seed 1 job 0. Each runs
in-process through ``uidforge.cli.main`` in a temporary directory. A
change that means to alter an output rewrites
``tests/data/bench_digests.json`` with

    PYTHONPATH=src python tests/test_bench_digests.py

and names the changed files in CHANGES.md.
"""

import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import pytest

from uidforge import cli

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).parent / "data" / "bench_digests.json"
JOBS = [
    *(("national-demand", seed, k) for seed in (1, 2) for k in range(6)),
    ("posterior-estimate", 1, 0),
    ("posterior-estimate", 1, 1),
    ("districts-project", 1, 0),
]


def _load_gen():
    """``perfbench/gen.py`` as a module, leaving no bytecode beside it."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def job_key(workload, seed, index) -> str:
    return f"{workload} seed {seed} job {index}"


def job_digests(gen, workload, seed, index, workdir: Path) -> dict:
    """Run one job's commands and hash every file they write, keyed by
    output directory and file name."""
    job = gen.make_job(workload, seed, index, workdir)
    for argv in job.steps:
        assert cli.main(argv) == 0, argv
    return {
        f"{d.name}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
        for d in job.out_dirs
        for f in sorted(d.iterdir())
    }


@pytest.fixture(scope="module")
def gen():
    return _load_gen()


@pytest.mark.parametrize("workload, seed, index", JOBS, ids=[job_key(*j) for j in JOBS])
def test_outputs_match_recorded_digests(gen, tmp_path, workload, seed, index):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))[job_key(workload, seed, index)]
    assert job_digests(gen, workload, seed, index, tmp_path) == recorded


if __name__ == "__main__":
    bench_gen = _load_gen()
    digests = {}
    for workload, seed, index in JOBS:
        with tempfile.TemporaryDirectory() as work:
            key = job_key(workload, seed, index)
            digests[key] = job_digests(bench_gen, workload, seed, index, Path(work))
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
