"""Command-line interface.

Four subcommands: ``project`` (population projection), ``demand``
(annual card requirement series plus chart), ``coverage`` (census count
corrections) and ``estimate`` (posterior demand intensity). Every option
is declared once, in ``_OPTIONS``. Options are flags-first; ``--config
FILE`` supplies key=value defaults that flags override, and
UIDFORGE_SEED is ``estimate``'s seed fallback. Each command resolves its
options into a dict of values by option name before touching any file.
Diagnostics go to stderr, data only to files; the exit code is 0 iff no
error occurred.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .bayes import PriorSpec, metropolis_sample, summarize_chain
from .core import AgeAxis, FertilityConfig
from .coverage import CoverageConfig, allocate_unknown_age, apply_omission_adjustment
from .csvio import (
    emit_demand_csv,
    emit_population_csv,
    emit_posterior_csv,
    emit_projection_csv,
    load_fertility_csv,
    load_flows_csv,
    load_observations_csv,
    load_population_csv,
    load_survival_csv,
    load_unknown_age_csv,
    render_series_chart,
)
from .errors import DomainError, UidforgeError
from .ledger import IssuancePolicy, annual_card_requirement_series
from .projection import project_population

SEED_ENV_VAR = "UIDFORGE_SEED"


def _as_int(flag: str, value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise DomainError(f"--{flag} must be an integer, got {value!r}") from None


def _as_float(flag: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise DomainError(f"--{flag} must be a number, got {value!r}") from None


def _as_path(flag: str, value) -> Path:
    if not value:
        raise DomainError(f"--{flag} path is empty")
    return Path(value)


def _as_policy(flag: str, value) -> IssuancePolicy:
    try:
        return IssuancePolicy(value)
    except ValueError:
        names = sorted(policy.value for policy in IssuancePolicy)
        raise DomainError(f"--{flag} must be one of {names}, got {value!r}") from None


_REQUIRED = object()
_PROJECTING = ("project", "demand")
_ALL = ("project", "demand", "coverage", "estimate")

#: option name -> (commands that take it, parse function, default or
#: _REQUIRED, help text or command -> help text). The flag is the name
#: with ``-`` for ``_``. Options resolve in this order, so the first
#: faulty one is the one reported.
_OPTIONS = {
    "population": (
        ("project", "demand", "coverage"),
        _as_path,
        _REQUIRED,
        "population CSV (region,sex,age,count)",
    ),
    "survival": (_PROJECTING, _as_path, _REQUIRED, "survival CSV (region,sex,age,p)"),
    "fertility": (_PROJECTING, _as_path, _REQUIRED, "fertility CSV (age,rate)"),
    "flows": (("demand",), _as_path, _REQUIRED, "flows CSV (rate or count schema)"),
    "observations": (("estimate",), _as_path, _REQUIRED, "observations CSV (year,count,exposure)"),
    "unknown_age": (("coverage",), _as_path, None, "unknown-age CSV (sex,count)"),
    "max_age": (_ALL, _as_int, 100, "last age of life (default 100)"),
    "base_year": (_ALL, _as_int, 0, "year label of the input pyramid (default 0)"),
    "sex_ratio": (_PROJECTING, _as_float, _REQUIRED, "male births per female birth"),
    "eligible_proportion": (_PROJECTING, _as_float, 1.0, "eligible fraction of women (default 1)"),
    "infant_mortality": (_PROJECTING, _as_float, 0.0, "deaths per 1000 live births (default 0)"),
    "omission": (("coverage",), _as_float, 0.0, "net omission per 1000 (default 0)"),
    "prior_shape": (("estimate",), _as_float, _REQUIRED, "Gamma prior shape"),
    "prior_rate": (("estimate",), _as_float, _REQUIRED, "Gamma prior rate"),
    "samples": (("estimate",), _as_int, _REQUIRED, "number of MCMC samples"),
    "proposal_scale": (
        ("estimate",), _as_float, 0.5, "random-walk scale on log beta (default 0.5)"
    ),
    "horizon": (
        _PROJECTING,
        _as_int,
        _REQUIRED,
        {"project": "years to project", "demand": "years to forecast"},
    ),
    "seed": (("estimate",), _as_int, 0, f"RNG seed (fallback: ${SEED_ENV_VAR}, then 0)"),
    "policy": (
        ("demand",),
        _as_policy,
        IssuancePolicy.AT_BIRTH,
        "at-birth | at-age-one | full (default at-birth)",
    ),
    "out": (_ALL, _as_path, _REQUIRED, "output directory"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uidforge",
        description="Demographic projection and identity-card demand forecasting",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, command_help) in _COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        p.add_argument("--config", help="key=value file with defaults for any flag")
        for name, (commands, _, _, text) in _OPTIONS.items():
            if command in commands:
                text = text if isinstance(text, str) else text[command]
                p.add_argument("--" + name.replace("_", "-"), help=text)
    return parser


def _load_config_file(path) -> dict:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from exc
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{i}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        name = key.replace("-", "_")
        if name not in _OPTIONS:
            raise DomainError(f"{path}:{i}: unknown option {key!r}")
        values[name] = value
    return values


def _run_config(args) -> dict:
    """The parsed value of each option ``args.command`` takes, by the
    option's name in ``_OPTIONS``: its flag, else its config-file value,
    else (``seed`` only) $UIDFORGE_SEED, else its default."""
    config = {} if args.config is None else _load_config_file(_as_path("config", args.config))
    values = {}
    for name, (commands, parse, default, _) in _OPTIONS.items():
        if args.command not in commands:
            continue
        flag = name.replace("_", "-")
        raw = getattr(args, name)
        if raw is None:
            raw = config.get(name)
        if raw is None and name == "seed":
            raw = os.environ.get(SEED_ENV_VAR)
        if raw is not None:
            values[name] = parse(flag, raw)
        elif default is _REQUIRED:
            raise DomainError(f"missing required option --{flag}")
        else:
            values[name] = default
    if values.get("horizon", 0) < 0:
        raise DomainError(f"horizon must be >= 0, got {values['horizon']}")
    return values


def _load_projection_inputs(v: dict):
    axis = AgeAxis(v["max_age"])
    pyramids = load_population_csv(v["population"], axis, v["base_year"])
    if not pyramids:
        raise DomainError("population file contains no data rows")
    schedules = load_survival_csv(v["survival"], axis)
    rates = load_fertility_csv(v["fertility"])
    fert = FertilityConfig(
        rates,
        eligible_proportion=v["eligible_proportion"],
        sex_ratio_at_birth=v["sex_ratio"],
        infant_mortality=v["infant_mortality"],
    )
    return pyramids, schedules, fert


def _schedule_for(region_code: str, schedules: dict):
    if region_code in schedules:
        return schedules[region_code]
    if len(schedules) == 1:
        return next(iter(schedules.values()))
    raise DomainError(
        f"no survival schedule for region {region_code!r} and the file is not single-region"
    )


def _ensure_out_dir(v: dict) -> Path:
    out = v["out"]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DomainError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _cmd_project(v: dict) -> int:
    pyramids, schedules, fert = _load_projection_inputs(v)
    regions = [(code, _schedule_for(code, schedules)) for code in sorted(pyramids)]
    out = _ensure_out_dir(v)
    horizon = v["horizon"]
    emit_projection_csv(
        (
            (code, project_population(pyramids[code].densified(), schedule, fert, horizon))
            for code, schedule in regions
        ),
        out / "projection.csv",
    )
    return 0


def _cmd_demand(v: dict) -> int:
    pyramids, schedules, fert = _load_projection_inputs(v)
    if len(pyramids) != 1:
        raise DomainError(
            f"demand needs a single-region population file, got {sorted(pyramids)}"
        )
    code, pyramid = next(iter(pyramids.items()))
    flows = load_flows_csv(v["flows"])
    series = annual_card_requirement_series(
        pyramid.densified(),
        _schedule_for(code, schedules),
        fert,
        flows,
        v["horizon"],
        v["policy"],
    )
    out = _ensure_out_dir(v)
    emit_demand_csv(series, out / "demand.csv")
    if len(series.years) >= 2:
        render_series_chart(series, out / "demand.svg")
    else:
        print("demand: skipping chart (needs at least 2 rows)", file=sys.stderr)
    return 0


def _cmd_coverage(v: dict) -> int:
    pyramids = load_population_csv(v["population"], AgeAxis(v["max_age"]), v["base_year"])
    unknowns = load_unknown_age_csv(v["unknown_age"]) if v["unknown_age"] else {}
    if unknowns and len(pyramids) != 1:
        raise DomainError("unknown-age allocation needs a single-region population file")
    coverage_cfg = CoverageConfig(omission_per_1000=v["omission"], unknown_age_counts=unknowns)
    adjusted = {}
    for code, pyramid in pyramids.items():
        fixed = apply_omission_adjustment(pyramid, coverage_cfg)
        if unknowns:
            fixed = allocate_unknown_age(fixed, coverage_cfg)
        adjusted[code] = fixed
    out = _ensure_out_dir(v)
    emit_population_csv(adjusted, out / "adjusted_population.csv")
    return 0


def _cmd_estimate(v: dict) -> int:
    observations = load_observations_csv(v["observations"])
    prior = PriorSpec(shape=v["prior_shape"], rate=v["prior_rate"])
    chain = metropolis_sample(observations, prior, v["samples"], v["seed"], v["proposal_scale"])
    emit_posterior_csv(summarize_chain(chain), chain, _ensure_out_dir(v) / "posterior.csv")
    return 0


#: command -> (function, help)
_COMMANDS = {
    "project": (_cmd_project, "project a population forward"),
    "demand": (_cmd_demand, "annual card requirement series"),
    "coverage": (_cmd_coverage, "correct raw census counts"),
    "estimate": (_cmd_estimate, "posterior demand intensity via MCMC"),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        values = _run_config(args)
        # an overflow is reported once, by the writer or check that rejects its result
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command][0](values)
    except UidforgeError as exc:
        print(f"uidforge {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        reason = f": {exc}" if str(exc) else ""
        print(f"uidforge {args.command}: error: out of memory{reason}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
