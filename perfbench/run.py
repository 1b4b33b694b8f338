"""uidforge benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``). The run is a closed loop from this one process: the next
CLI command is issued through ``uidforge.cli.main(argv)`` only after the
previous one returned, with no extra threads. Inputs for job k come
from (workload, seed, k) alone and are written before the job's clock
starts; outputs are checked against a numpy oracle after it stops.

With ``--trace 0`` the run reports the end-to-end metrics, with job
times counted in probes of the host's current speed (see SpeedProbe)
and the raw times printed beside them. With ``--trace 1`` it runs each
job untraced and then traced, back to back, and reports per-layer
metrics from the traced runs. The last line of standard output is one
JSON object: correct, attempted, failed, metrics. Spans and a full
result with machine facts go to ``.perfbench/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 7  # fresh interpreters per run, after one warm-up
PROBE_PERIOD_S = 0.02
PROBE_KEYS = [(i & 1, i % 101) for i in range(1000)]

# Per workload: the raw throughput's name and what one work unit is.
WORK_UNIT = {
    "districts-project": ("cell_years_per_s", "projected cell-years, 640 x 2 x 101 x 20 per job"),
    "national-demand": ("forecast_years_per_s", "demand years, 100 per job"),
    "posterior-estimate": ("samples_per_s", "MCMC samples, 100000 per job"),
}

# Gated end-to-end metric -> (unit, definition). A "probe" is the time the
# host currently needs for SpeedProbe's kernel, sampled during each job.
END_TO_END = {
    "setup_s": ("s", "cold `import uidforge.cli` in a fresh interpreter, median of 7"),
    "work_per_probe": ("1/probe", "work units per probe of job time"),
    "cmd_p50_probes": ("probe", "median job latency, in probes"),
    "cmd_tail_probes": ("probe", "highest percentile of job latency in probes with at "
                        "least 10 jobs beyond it; the maximum under 11 jobs"),
    "peak_rss_mb": ("MB", "peak resident memory of the workload process"),
}

# Raw times, printed and recorded beside the gated metrics.
RAW = {
    "work_per_s": ("1/s", "work units per second of job time"),
    "cmd_p50_ms": ("ms", "median job latency"),
    "cmd_tail_ms": ("ms", "job latency at the cmd_tail_probes percentile rule"),
    "probe_ms": ("ms", "median probe time: the host's speed during the run"),
}

# Per-layer metric -> (unit, the end-to-end metric it should move, and where).
PER_LAYER = {
    "cli.self_s": ("s", "work_per_probe (cell_years_per_s) and peak_rss_mb on districts-project, "
                   "where row formatting in _cmd_project is most of it; near zero elsewhere"),
    "csvio.load_s": ("s", "work_per_probe on districts-project (one large read); "
                     "cmd_p50_probes on national-demand (small reads in every job)"),
    "csvio.rows_in": ("count", "explains csvio.load_s"),
    "csvio.emit_s": ("s", "work_per_probe and peak_rss_mb on districts-project"),
    "csvio.bytes_out": ("bytes", "explains csvio.emit_s and peak_rss_mb"),
    "csvio.chart_s": ("s", "small fixed cost per national-demand job"),
    "core.densify_s": ("s", "work_per_probe on districts-project; cmd_p50_probes on "
                       "national-demand"),
    "coverage.adjust_s": ("s", "work_per_probe on districts-project; under 1%, kept so that "
                          "a regression shows"),
    "coverage.cells_adjusted": ("count", "explains coverage.adjust_s"),
    "projection.project_self_s": ("s", "work_per_probe on districts-project"),
    "projection.step_s": ("s", "work_per_probe on districts-project and cmd_p50_probes on "
                          "national-demand; no change on posterior-estimate"),
    "projection.step_calls": ("count", "explains projection.step_s"),
    "projection.births_s": ("s", "work_per_probe on districts-project and cmd_p50_probes on "
                            "national-demand; no change on posterior-estimate"),
    "projection.deaths_s": ("s", "cmd_p50_probes on national-demand"),
    "projection.cell_years": ("count", "explains the projection times"),
    "ledger.sim_self_s": ("s", "work_per_probe (forecast_years_per_s) and cmd_tail_probes on "
                          "national-demand only"),
    "ledger.age15_s": ("s", "work_per_probe and cmd_tail_probes on national-demand only"),
    "ledger.returns_s": ("s", "work_per_probe and cmd_tail_probes on national-demand only"),
    "ledger.years": ("count", "explains the ledger times"),
    "bayes.sample_s": ("s", "work_per_probe (samples_per_s) and cmd_p50_probes on "
                       "posterior-estimate only"),
    "bayes.step_ns": ("ns", "work_per_probe and cmd_p50_probes on posterior-estimate only"),
    "bayes.acceptance": ("ratio", "accepted over bayes.proposals; must not move unless a "
                         "change sets out to move it"),
    "bayes.proposals": ("count", "explains bayes.sample_s"),
    "bayes.summarize_s": ("s", "small fixed cost per posterior-estimate job"),
    "trace.overhead_frac": ("ratio", "traced minus untraced job time over untraced, each job "
                            "run both ways back to back"),
    "trace.unattributed_frac": ("ratio", "largest share of one traced job's time outside "
                                "every span"),
}

# span name -> per-layer metric that sums its self time
SPAN_METRIC = {
    "cli.main": "cli.self_s",
    "csvio.load": "csvio.load_s",
    "csvio.emit": "csvio.emit_s",
    "csvio.chart": "csvio.chart_s",
    "core.densify": "core.densify_s",
    "coverage.adjust": "coverage.adjust_s",
    "projection.project": "projection.project_self_s",
    "projection.step": "projection.step_s",
    "projection.births": "projection.births_s",
    "projection.deaths": "projection.deaths_s",
    "ledger.sim": "ledger.sim_self_s",
    "ledger.age15": "ledger.age15_s",
    "ledger.returns": "ledger.returns_s",
    "bayes.sample": "bayes.sample_s",
    "bayes.summarize": "bayes.summarize_s",
}


class Pass:
    """Outcome of running a sequence of jobs."""

    def __init__(self):
        self.latencies: list = []  # seconds per job, probe time excluded
        self.probes: list = []  # median probe seconds during each job
        self.traced: list = []  # seconds per job, traced rerun (--trace 1)
        self.units = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.counts: dict = {}
        self.bytes_out = 0
        self.rows_in = 0


class SpeedProbe:
    """Samples the host's current CPU speed during each job.

    On a shared host CPU speed drifts by 20% and more over tens of
    seconds, so raw times from runs minutes apart are not comparable.
    The probe times a fixed, allocation-free pure-Python kernel
    (tuple-keyed dict updates and float arithmetic, like the program's
    hot loops) once before the job and every PROBE_PERIOD_S of wall time
    during it, from a SIGALRM handler on this thread. Each sample runs
    the kernel once to bring it back into cache and times a second pass.
    A job's latency divided by its median sample is its cost in probes,
    which does not drift with the host.
    """

    def __init__(self):
        self.cells = dict.fromkeys(PROBE_KEYS, 1.0)
        self.samples: list = []
        self.spent = 0.0  # seconds the handler took during the current job
        signal.signal(signal.SIGALRM, self._on_alarm)

    def kernel(self) -> float:
        cells = self.cells
        start = time.perf_counter()
        for key in PROBE_KEYS:
            cells[key] = cells[key] * 0.999 + 0.5
        return time.perf_counter() - start

    def sample(self) -> float:
        self.kernel()
        return self.kernel()

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(self.sample())
        self.spent += time.perf_counter() - start

    def start(self):
        self.samples = [self.sample()]
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def measure_setup() -> list:
    """Cold-import times of uidforge.cli, one fresh interpreter each."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import uidforge.cli; dt = time.perf_counter() - t; "
        "print(repr(dt), uidforge.cli.__file__)"
    )
    # an installed CLI imports from cached bytecode, whatever the caller's setting
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            capture_output=True, text=True, timeout=60, cwd=ROOT, check=True, env=env,
        ).stdout.split()
        if not Path(out[1]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported uidforge from {out[1]}, not from {SRC}")
        if i:  # the first interpreter warms the page cache and writes bytecode
            times.append(float(out[0]))
    return times


def run_command(cli, argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an unexpected crash fails this command, not the run
        traceback.print_exc()
        return -1


def run_steps(cli, job) -> tuple:
    """Run a job's commands back to back until one fails; returns the
    exit codes and the elapsed seconds."""
    codes = []
    start = time.perf_counter()
    for argv in job.steps:
        codes.append(run_command(cli, argv))
        if codes[-1] != 0:
            break
    return codes, time.perf_counter() - start


def check(res: Pass, job, codes):
    """Count each of the job's commands as attempted, and as failed if it
    exited non-zero, did not run, or its output fails the oracle."""
    for step, argv in enumerate(job.steps):
        res.attempted += 1
        if step >= len(codes) or codes[step] != 0:
            code = codes[step] if step < len(codes) else "none, not run"
            problems = [f"{argv[0]}: exit code {code}"]
        else:
            problems = oracle.check_step(job, step)
        if problems:
            res.failed += 1
            res.problems.extend(f"job {job.index}: {p}" for p in problems)


def data_rows(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip()) - 1


def run_jobs(cli, workload, seed, workroot, budget, probe=None, tracer=None) -> Pass:
    """Run jobs 0, 1, ... until another job as long as the last would pass
    ``budget`` seconds of command time. With a tracer, each job runs
    untraced and then, right after on the same inputs, traced."""
    res = Pass()
    elapsed = 0.0
    index = 0
    while index == 0 or elapsed + res.latencies[-1] + sum(res.traced[-1:]) <= budget:
        job = gen.make_job(workload, seed, index, workroot / f"job{index}")
        gc.collect()
        if probe:
            probe.start()
        codes, latency = run_steps(cli, job)
        if probe:
            probe.stop()
            latency -= probe.spent
            res.probes.append(statistics.median(probe.samples))
        res.latencies.append(latency)
        res.units += job.units
        for name, value in job.counts.items():
            res.counts[name] = res.counts.get(name, 0.0) + value
        check(res, job, codes)
        elapsed += latency
        if tracer:
            gc.collect()
            tracer.command = index
            tracer.install()
            try:
                codes, latency = run_steps(cli, job)
            finally:
                tracer.uninstall()
            res.traced.append(latency)
            check(res, job, codes)
            elapsed += latency
            res.rows_in += sum(data_rows(p) for p in tracer.inputs)
            tracer.inputs.clear()
            res.bytes_out += sum(
                f.stat().st_size for d in job.out_dirs if d.is_dir() for f in d.iterdir()
            )
        shutil.rmtree(job.workdir)
        index += 1
    return res


def tail(values) -> tuple:
    """(value, percentile): the highest percentile with at least ten
    samples beyond it, or the maximum when there are fewer than 11."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(setup, res: Pass) -> tuple:
    """The gated metrics, and the raw times printed beside them."""
    costs = [lat / p for lat, p in zip(res.latencies, res.probes)]
    gated = {
        "setup_s": statistics.median(setup),
        "work_per_probe": res.units / sum(costs),
        "cmd_p50_probes": statistics.median(costs),
        "cmd_tail_probes": tail(costs)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    raw = {
        "work_per_s": res.units / sum(res.latencies),
        "cmd_p50_ms": 1e3 * statistics.median(res.latencies),
        "cmd_tail_ms": 1e3 * tail(res.latencies)[0],
        "probe_ms": 1e3 * statistics.median(res.probes),
    }
    return gated, raw


def per_layer(res: Pass, tracer) -> dict:
    out = {name: 0.0 for name in PER_LAYER}
    by_name = spans.self_by_name(tracer.spans)
    for name, (own, _) in by_name.items():
        out[SPAN_METRIC[name]] = own
    out["projection.step_calls"] = float(by_name.get("projection.step", (0.0, 0))[1])
    out["projection.cell_years"] = res.counts.get("projection.cell_years", 0.0)
    out["ledger.years"] = res.counts.get("ledger.years", 0.0)
    out["csvio.rows_in"] = float(res.rows_in)
    out["csvio.bytes_out"] = float(res.bytes_out)
    counts = tracer.counts
    out["coverage.cells_adjusted"] = float(counts["coverage.cells_adjusted"])
    out["bayes.proposals"] = float(counts["bayes.proposals"])
    if counts["bayes.samples"]:
        out["bayes.step_ns"] = 1e9 * out["bayes.sample_s"] / counts["bayes.samples"]
        out["bayes.acceptance"] = counts["bayes.accepted"] / counts["bayes.proposals"]
    out["trace.overhead_frac"] = sum(res.traced) / sum(res.latencies) - 1.0
    own_by_command = [0.0] * len(res.traced)
    for span, own in zip(tracer.spans, spans.self_times(tracer.spans)):
        own_by_command[span[4]] += own
    out["trace.unattributed_frac"] = max(
        (wall - own) / wall for wall, own in zip(res.traced, own_by_command)
    )
    return out


def machine_facts(seed) -> dict:
    def read(path, default="unknown"):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return default

    model = next(
        (line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo", "").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if level in ("2", "3") and kind != "Instruction":
            caches[f"L{level}"] = read(index / "size")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "uidforge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "uidforge" / "cli.py").is_file():
        print(f"perfbench: no uidforge sources under {SRC}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    workroot = out_dir / "work"
    workroot.mkdir(parents=True)

    setup = measure_setup()
    sys.path.insert(0, str(SRC))
    import uidforge.cli as cli
    import uidforge.core
    import uidforge.ledger
    import uidforge.projection

    if args.trace == 0:
        res = run_jobs(cli, args.workload, args.seed, workroot, args.seconds, probe=SpeedProbe())
        metrics, raw = end_to_end(setup, res)
        units = END_TO_END
    else:
        modules = (cli, uidforge.core, uidforge.ledger, uidforge.projection)
        tracer = spans.Tracer({m.__name__: m for m in modules})
        res = run_jobs(cli, args.workload, args.seed, workroot, args.seconds, tracer=tracer)
        metrics, raw = per_layer(res, tracer), {}
        units = PER_LAYER
        with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    shutil.rmtree(workroot)

    jobs = len(res.latencies)
    tail_pct = tail(res.latencies)[1]
    raw_name = WORK_UNIT[args.workload][0]
    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(args.seed),
        "work_unit": WORK_UNIT[args.workload][1],
        "jobs": jobs,
        "tail_percentile": tail_pct,
        "error_rate": res.failed / res.attempted,
        "attempted": res.attempted,
        "failed": res.failed,
        "problems": res.problems,
        "setup_samples_s": setup,
        "latencies_s": res.latencies,
        "probes_s": res.probes,
        "traced_latencies_s": res.traced,
        "metrics": {k: {"value": v, "unit": units[k][0], "about": units[k][1]}
                    for k, v in metrics.items()},
        "raw": {k: {"value": v, "unit": RAW[k][0], "about": RAW[k][1]} for k, v in raw.items()},
    }
    (out_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} jobs={jobs}, "
          f"work unit: {WORK_UNIT[args.workload][1]}")
    for name, value in metrics.items():
        print(f"  {name:26s} {value:14.6g} {units[name][0]:8s} {units[name][1]}")
    for name, value in raw.items():
        label = raw_name if name == "work_per_s" else name
        print(f"  {label:26s} {value:14.6g} {RAW[name][0]:8s} raw, not gated: {RAW[name][1]}")
    if args.trace == 0:
        print(f"  tail percentile p{tail_pct:.1f} of {jobs} jobs")
    print(f"  error_rate {res.failed / res.attempted:g} "
          f"({res.failed} failed of {res.attempted} commands)")
    for problem in res.problems[:10]:
        print(f"  FAILED {problem}")
    print(f"  machine {json.dumps(result['machine'])}")
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
