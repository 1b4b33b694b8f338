"""Deterministic input generator for the three benchmark workloads.

Every job's files are a pure function of (workload, seed, job index):
the same triple writes byte-identical files. The program under test
receives only these files; the oracle receives the arrays they were
written from (``Job.expect``), so it never reads the program's parse
of its own inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAX_AGE = 100
N_AGES = MAX_AGE + 1
SEXES = ("M", "F")  # row 0 male, row 1 female in every (2, N_AGES) array

# districts-project
N_DISTRICTS = 640
DISTRICT_HORIZON = 20
OMISSION_PER_1000 = 25.0
SPARSE_SHARE = 0.05  # districts whose top ages 96..100 are partly absent
SEX_RATIO = 1.06

# national-demand
NATIONAL_TOTAL = 1.21e9
DEMAND_HORIZON = 100
INFANT_MORTALITY = 44.0  # per 1000 live births, SRS 2011
BASE_YEAR = 2011
POLICIES = ("at-birth", "at-age-one", "full")
FLOW_SCHEMAS = ("rate", "count")
N_STATES = 4

# posterior-estimate
MCMC_SAMPLES = 100_000
OBS_YEARS = 10

WORKLOADS = ("districts-project", "national-demand", "posterior-estimate")


@dataclass
class Job:
    """One request of a workload: CLI steps run back to back, plus what
    the oracle needs to check their outputs."""

    workload: str
    index: int
    workdir: Path
    steps: list  # list of argv lists for uidforge.cli.main
    units: float  # work units: cell-years, forecast years or samples
    out_dirs: list  # directories the steps write
    counts: dict = field(default_factory=dict)  # work counts for the layer metrics
    expect: dict = field(default_factory=dict)


def job_rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed, index])


def _write(path: Path, lines: list) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
    return path


def _fmt(x) -> str:
    return repr(float(x))


def survival_schedules(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 2, N_AGES) one-year survival: Gompertz-Makeham hazard with a
    region-specific level and slope, an infant term at age 0, female
    hazard 15% lower, and 0 at the last age of life."""
    x = np.arange(N_AGES, dtype=float)
    a = 4e-5 * np.exp(rng.normal(0.0, 0.3, size=(n, 1, 1)))
    b = rng.uniform(0.085, 0.095, size=(n, 1, 1))
    c = rng.uniform(5e-4, 2e-3, size=(n, 1, 1))
    hazard = (a * np.exp(b * x) + c) * np.array([1.0, 0.85]).reshape(1, 2, 1)
    s = np.exp(-hazard)
    s[:, :, 0] = 1.0 - rng.uniform(0.03, 0.06, size=(n, 2))
    s[:, :, MAX_AGE] = 0.0
    return s


def pyramids(rng: np.random.Generator, s: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """(n, 2, N_AGES) whole-number counts: a stable-population shape from
    the region's own survival and growth rate, with 5% cell noise."""
    n = s.shape[0]
    lx = np.ones_like(s)
    lx[:, :, 1:] = np.cumprod(s[:, :, :-1], axis=2)
    growth = rng.uniform(1.005, 1.02, size=(n, 1, 1))
    shape = lx * growth ** -np.arange(N_AGES, dtype=float)
    shape *= np.array([0.515, 0.485]).reshape(1, 2, 1)
    shape *= rng.uniform(0.95, 1.05, size=shape.shape)
    shape /= shape.sum(axis=(1, 2), keepdims=True)
    return np.rint(shape * totals.reshape(n, 1, 1))


def fertility(rng: np.random.Generator) -> np.ndarray:
    """Rates for ages 15..49: a gamma-shaped schedule with TFR near 2.4."""
    x = np.arange(15, 50, dtype=float) - 14.0
    k = rng.uniform(3.5, 4.5)
    shape = x ** (k - 1) * np.exp(-x / 3.2)
    return rng.uniform(2.2, 2.6) * shape / shape.sum()


def _population_lines(codes, counts: np.ndarray, present: np.ndarray) -> list:
    lines = ["region,sex,age,count"]
    for r, code in enumerate(codes):
        for si, sex in enumerate(SEXES):
            row = counts[r, si]
            lines.extend(
                f"{code},{sex},{age},{int(row[age])}"
                for age in range(N_AGES)
                if present[r, si, age]
            )
    return lines


def _survival_lines(codes, s: np.ndarray) -> list:
    lines = ["region,sex,age,p"]
    for r, code in enumerate(codes):
        for si, sex in enumerate(SEXES):
            lines.extend(f"{code},{sex},{age},{_fmt(s[r, si, age])}" for age in range(N_AGES))
    return lines


def _fertility_lines(rates: np.ndarray) -> list:
    return ["age,rate"] + [f"{15 + i},{_fmt(f)}" for i, f in enumerate(rates)]


def districts_job(seed: int, index: int, workdir: Path, n: int = N_DISTRICTS) -> Job:
    """``n`` districts, each with its own survival schedule; a few have
    sparse top ages. Steps: ``coverage --omission 25``, then
    ``project --horizon 20`` on the adjusted file."""
    rng = job_rng("districts-project", seed, index)
    codes = [f"D{r:03d}" for r in range(n)]
    s = survival_schedules(rng, n)
    totals = NATIONAL_TOTAL / N_DISTRICTS * np.exp(rng.normal(0.0, 0.5, n))
    counts = pyramids(rng, s, totals)
    rates = fertility(rng)

    present = np.ones(counts.shape, dtype=bool)
    sparse = rng.random(n) < SPARSE_SHARE
    drop = rng.random((n, 2, N_AGES)) < 0.7
    drop[:, :, :96] = False
    present[sparse] &= ~drop[sparse]

    workdir.mkdir(parents=True, exist_ok=True)
    pop = _write(workdir / "population.csv", _population_lines(codes, counts, present))
    surv = _write(workdir / "survival.csv", _survival_lines(codes, s))
    fert = _write(workdir / "fertility.csv", _fertility_lines(rates))
    cov_out = workdir / "coverage"
    proj_out = workdir / "project"
    steps = [
        ["coverage", "--population", str(pop), "--omission", _fmt(OMISSION_PER_1000),
         "--out", str(cov_out)],
        ["project", "--population", str(cov_out / "adjusted_population.csv"),
         "--survival", str(surv), "--fertility", str(fert),
         "--horizon", str(DISTRICT_HORIZON), "--sex-ratio", _fmt(SEX_RATIO),
         "--out", str(proj_out)],
    ]
    cell_years = float(n * 2 * N_AGES * DISTRICT_HORIZON)
    return Job(
        "districts-project",
        index,
        workdir,
        steps,
        units=cell_years,
        out_dirs=[cov_out, proj_out],
        counts={"projection.cell_years": cell_years},
        expect={
            "codes": codes,
            "counts": counts,
            "present": present,
            "survival": s,
            "fertility": rates,
            "adjusted_csv": cov_out / "adjusted_population.csv",
            "projection_csv": proj_out / "projection.csv",
        },
    )


def _flow_lines(rng: np.random.Generator, schema: str, population: float):
    """A few states' flows in the rate or the count schema, plus the
    annual in- and out-flow totals the demand model reads from them."""
    codes = [f"S{k}" for k in range(N_STATES)]
    share = rng.dirichlet(np.ones(N_STATES))
    if schema == "rate":
        pops = np.rint(share * population)
        b = rng.uniform(0.018, 0.024, N_STATES)
        d = rng.uniform(0.006, 0.009, N_STATES)
        m = rng.uniform(0.001, 0.004, N_STATES)
        e = rng.uniform(0.001, 0.004, N_STATES)
        lines = ["state,population,b,d,m,e"] + [
            f"{c},{_fmt(p)},{_fmt(bi)},{_fmt(di)},{_fmt(mi)},{_fmt(ei)}"
            for c, p, bi, di, mi, ei in zip(codes, pops, b, d, m, e)
        ]
        return lines, float(np.sum(m * pops)), float(np.sum(e * pops))
    births = np.rint(share * population * 0.021)
    deaths = np.rint(share * population * 0.007)
    out = rng.integers(100_000, 2_000_000, N_STATES).astype(float)
    inn = rng.integers(100_000, 2_000_000, N_STATES).astype(float)
    inn[-1] += out.sum() - inn.sum()  # interstate moves close
    if inn[-1] < 0:
        out[-1] -= inn[-1]
        inn[-1] = 0.0
    immig = rng.integers(10_000, 500_000, N_STATES).astype(float)
    emig = rng.integers(10_000, 500_000, N_STATES).astype(float)
    lines = ["state,births,deaths,in,out,immig,emig"] + [
        ",".join([c] + [_fmt(v) for v in row])
        for c, row in zip(codes, zip(births, deaths, inn, out, immig, emig))
    ]
    return lines, float(inn.sum() + immig.sum()), float(out.sum() + emig.sum())


def national_job(seed: int, index: int, workdir: Path) -> Job:
    """One national ``demand --horizon 100`` command on its own perturbed
    1.21 G pyramid; job k uses policy k mod 3 and flow schema k div 3 mod 2,
    so six consecutive jobs cover every pairing once."""
    rng = job_rng("national-demand", seed, index)
    policy = POLICIES[index % 3]
    schema = FLOW_SCHEMAS[(index // 3) % 2]
    s = survival_schedules(rng, 1)
    counts = pyramids(rng, s, np.array([NATIONAL_TOTAL * rng.uniform(0.99, 1.01)]))
    rates = fertility(rng)
    flow_lines, inflow, outflow = _flow_lines(rng, schema, float(counts.sum()))

    workdir.mkdir(parents=True, exist_ok=True)
    pop = _write(workdir / "population.csv",
                 _population_lines(["IN"], counts, np.ones(counts.shape, dtype=bool)))
    surv = _write(workdir / "survival.csv", _survival_lines(["IN"], s))
    fert = _write(workdir / "fertility.csv", _fertility_lines(rates))
    flows = _write(workdir / "flows.csv", flow_lines)
    out = workdir / "demand"
    steps = [[
        "demand", "--population", str(pop), "--survival", str(surv),
        "--fertility", str(fert), "--flows", str(flows), "--policy", policy,
        "--horizon", str(DEMAND_HORIZON), "--sex-ratio", _fmt(SEX_RATIO),
        "--infant-mortality", _fmt(INFANT_MORTALITY), "--base-year", str(BASE_YEAR),
        "--out", str(out),
    ]]
    return Job(
        "national-demand",
        index,
        workdir,
        steps,
        units=float(DEMAND_HORIZON),
        out_dirs=[out],
        counts={
            "projection.cell_years": float(2 * N_AGES * DEMAND_HORIZON),
            "ledger.years": float(DEMAND_HORIZON),
        },
        expect={
            "counts": counts[0],
            "survival": s[0],
            "fertility": rates,
            "policy": policy,
            "inflow": inflow,
            "outflow": outflow,
            "demand_csv": out / "demand.csv",
            "chart_svg": out / "demand.svg",
        },
    )


def posterior_job(seed: int, index: int, workdir: Path) -> Job:
    """One ``estimate --samples 100000`` command on its own 10-year
    Poisson observation file, with its own sampler seed and a proposal
    scale of 2.4 / sqrt(posterior shape)."""
    rng = job_rng("posterior-estimate", seed, index)
    beta = rng.uniform(0.01, 0.05)
    exposure = rng.uniform(0.5e7, 1.5e7, OBS_YEARS)
    counts = rng.poisson(beta * exposure)
    prior_shape = 2.0
    prior_rate = prior_shape / (beta * rng.uniform(0.5, 2.0))
    post_shape = prior_shape + float(counts.sum())
    post_rate = prior_rate + float(exposure.sum())
    scale = 2.4 / np.sqrt(post_shape)
    chain_seed = int(rng.integers(0, 2**31))

    workdir.mkdir(parents=True, exist_ok=True)
    obs = _write(workdir / "observations.csv", ["year,count,exposure"] + [
        f"{2001 + t},{int(c)},{_fmt(e)}" for t, (c, e) in enumerate(zip(counts, exposure))
    ])
    out = workdir / "estimate"
    steps = [[
        "estimate", "--observations", str(obs), "--prior-shape", _fmt(prior_shape),
        "--prior-rate", _fmt(prior_rate), "--samples", str(MCMC_SAMPLES),
        "--seed", str(chain_seed), "--proposal-scale", _fmt(scale), "--out", str(out),
    ]]
    return Job(
        "posterior-estimate",
        index,
        workdir,
        steps,
        units=float(MCMC_SAMPLES),
        out_dirs=[out],
        expect={
            "conjugate_mean": post_shape / post_rate,
            "samples": MCMC_SAMPLES,
            "posterior_csv": out / "posterior.csv",
        },
    )


MAKERS = {
    "districts-project": districts_job,
    "national-demand": national_job,
    "posterior-estimate": posterior_job,
}


def make_job(workload: str, seed: int, index: int, workdir: Path) -> Job:
    return MAKERS[workload](seed, index, Path(workdir))
