"""Output checks against an independent numpy recomputation.

Each check takes a :class:`gen.Job` whose steps have run and returns a
list of problems; an empty list means the outputs hold. The checks test
invariants of the model (totals, identities, tolerances), never digests
of the program's current bytes, so a behaviour fix that keeps the model
reads as a pass.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from gen import (
    BASE_YEAR,
    DEMAND_HORIZON,
    DISTRICT_HORIZON,
    INFANT_MORTALITY,
    N_AGES,
    OMISSION_PER_1000,
    SEX_RATIO,
    SEXES,
)

MALE_SHARE = SEX_RATIO / (1.0 + SEX_RATIO)
PROJECTION_RTOL = 1e-9
COVERAGE_RTOL = 1e-12
POSTERIOR_RTOL = 0.01
MAX_PROBLEMS = 5


def leslie_step(p: np.ndarray, s: np.ndarray, f: np.ndarray) -> np.ndarray:
    """One projection year for (..., 2, N_AGES) counts: survive every
    cohort one age up, drop the last age, put sexed births at age 0.
    Births are sum over x = 15..49 of s_F(x) P_F(x) F(x)."""
    births = np.sum(s[..., 1, 15:50] * p[..., 1, 15:50] * f, axis=-1)
    nxt = np.zeros_like(p)
    nxt[..., 1:] = p[..., :-1] * s[..., :-1]
    nxt[..., 0, 0] = births * MALE_SHARE
    nxt[..., 1, 0] = births - births * MALE_SHARE
    return nxt


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want) or (want == 0.0 and got == 0.0)


def check_coverage(expect: dict) -> list:
    """Every input cell, and no other, appears divided by 1 - 25/1000."""
    codes, counts, present = expect["codes"], expect["counts"], expect["present"]
    index = {code: r for r, code in enumerate(codes)}
    factor_den = 1.0 - OMISSION_PER_1000 / 1000.0
    seen = np.zeros_like(present)
    problems = []
    with open(expect["adjusted_csv"], newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        for region, sex, age, count in rows:
            r, si, a = index.get(region), SEXES.index(sex), int(age)
            if r is None or not present[r, si, a] or seen[r, si, a]:
                problems.append(f"coverage: unexpected cell {region},{sex},{age}")
                continue
            seen[r, si, a] = True
            want = counts[r, si, a] / factor_den
            if not _close(float(count), want, COVERAGE_RTOL):
                problems.append(f"coverage: {region},{sex},{age} = {count}, want {want!r}")
            if len(problems) >= MAX_PROBLEMS:
                return problems
    if (missing := int(np.count_nonzero(present & ~seen))):
        problems.append(f"coverage: {missing} input cells missing from the output")
    return problems


def check_projection(expect: dict, horizon: int = DISTRICT_HORIZON) -> list:
    """Per (year, district) totals of projection.csv against the Leslie
    recomputation from the omission-adjusted input, within 1e-9
    relative; every (year, district) has all 2 x N_AGES cells."""
    codes = expect["codes"]
    p = np.where(expect["present"], expect["counts"], 0.0) / (1.0 - OMISSION_PER_1000 / 1000.0)
    s, f = expect["survival"], expect["fertility"]
    want = np.empty((horizon + 1, len(codes)))
    for t in range(horizon + 1):
        want[t] = p.sum(axis=(1, 2))
        p = leslie_step(p, s, f)

    index = {code: r for r, code in enumerate(codes)}
    got = np.zeros_like(want)
    cells = np.zeros(want.shape, dtype=np.int64)
    problems = []
    with open(expect["projection_csv"], encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            year, region, _, _, count = line.split(",")
            r, t = index.get(region), int(year)
            if r is None or not 0 <= t <= horizon:
                problems.append(f"projection: unexpected row {line.strip()}")
                return problems
            got[t, r] += float(count)
            cells[t, r] += 1
    if (bad := np.argwhere(cells != 2 * N_AGES)).size:
        t, r = bad[0]
        problems.append(
            f"projection: {len(bad)} (year, district) groups lack {2 * N_AGES} cells, "
            f"first year {t} {codes[r]} has {cells[t, r]}"
        )
    err = np.abs(got - want) / np.abs(want)
    if (bad := np.argwhere(~(err <= PROJECTION_RTOL))).size:
        t, r = bad[0]
        problems.append(
            f"projection: {len(bad)} totals off by > {PROJECTION_RTOL:g}, "
            f"first year {t} {codes[r]}: {got[t, r]!r} vs {want[t, r]!r}"
        )
    return problems


def demand_oracle(expect: dict, horizon: int) -> np.ndarray:
    """(horizon, 3) expected new male, new female and returned cards by
    year, from the demand model's definitions; returns are deaths at 15+
    plus the out-flow."""
    p = expect["counts"].astype(float)
    s, f, policy = expect["survival"], expect["fertility"], expect["policy"]
    infant = 1.0 - INFANT_MORTALITY / 1000.0 if policy == "at-age-one" else 1.0
    half_in = expect["inflow"] / 2.0
    out = np.empty((horizon, 3))
    for t in range(horizon):
        births = np.sum(s[1, 15:50] * p[1, 15:50] * f)
        male = births * MALE_SHARE
        counted = np.array([male, births - male]) * infant
        age15 = p[:, 14] * s[:, 14] if policy != "full" else np.zeros(2)
        deaths15 = float(np.sum(p[:, 15:] * (1.0 - s[:, 15:])))
        new = counted + age15 + half_in
        out[t] = (new[0], new[1], deaths15 + expect["outflow"])
        p = leslie_step(p, s, f)
    return out


def check_demand(expect: dict, horizon: int = DEMAND_HORIZON) -> list:
    """New-card columns within +-1 of the oracle under every policy;
    returned cards within +-1 under at-birth and at-age-one, and at
    least deaths at 15+ plus out-flow (less 1 for rounding) under full."""
    want = demand_oracle(expect, horizon)
    with open(expect["demand_csv"], newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    problems = []
    if len(rows) != horizon:
        return [f"demand: {len(rows)} rows, want {horizon}"]
    for t, row in enumerate(rows):
        year, new_m, new_f, returned = (float(v) for v in row)
        if year != BASE_YEAR + 1 + t:
            problems.append(f"demand: row {t} has year {row[0]}, want {BASE_YEAR + 1 + t}")
        for label, got, exp in (("new_cards_male", new_m, want[t, 0]),
                                ("new_cards_female", new_f, want[t, 1])):
            if not abs(got - exp) <= 1.0:
                problems.append(f"demand: {row[0]} {label} {got:.0f} vs {exp:.3f}")
        if expect["policy"] == "full":
            if not returned >= want[t, 2] - 1.0:
                problems.append(f"demand: {row[0]} returned {row[3]} < deaths15+outflow {want[t, 2]:.3f}")
        elif not abs(returned - want[t, 2]) <= 1.0:
            problems.append(f"demand: {row[0]} returned {row[3]} vs {want[t, 2]:.3f}")
        if len(problems) >= MAX_PROBLEMS:
            break
    chart = expect["chart_svg"]
    if not (chart.is_file() and chart.stat().st_size > 0):
        problems.append("demand: demand.svg missing or empty")
    return problems


def check_posterior(expect: dict) -> list:
    """Posterior mean within 1% of the conjugate Gamma mean, the full
    chain length reported, acceptance strictly inside (0, 1)."""
    with open(expect["posterior_csv"], newline="", encoding="utf-8") as fh:
        header, row = list(csv.reader(fh))[:2]
    values = dict(zip(header, row))
    problems = []
    mean, want = float(values["mean"]), expect["conjugate_mean"]
    if not (math.isfinite(mean) and abs(mean - want) <= POSTERIOR_RTOL * want):
        problems.append(f"estimate: posterior mean {mean!r} vs conjugate {want!r}")
    if int(values["n_samples"]) != expect["samples"]:
        problems.append(f"estimate: n_samples {values['n_samples']}, want {expect['samples']}")
    if not 0.0 < float(values["acceptance_rate"]) < 1.0:
        problems.append(f"estimate: acceptance_rate {values['acceptance_rate']}")
    return problems


CHECKS = {
    "districts-project": (check_coverage, check_projection),
    "national-demand": (check_demand,),
    "posterior-estimate": (check_posterior,),
}


def check_step(job, step: int) -> list:
    """Problems with the outputs of one step of a finished job."""
    try:
        return CHECKS[job.workload][step](job.expect)
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        return [f"{job.steps[step][0]}: unreadable output: {exc!r}"]
