"""Command-line interface.

Four subcommands: ``project`` (population projection), ``demand``
(annual card requirement series plus chart), ``coverage`` (census count
corrections) and ``estimate`` (posterior demand intensity). Options are
flags-first; ``--config FILE`` supplies key=value defaults that flags
override, and UIDFORGE_SEED is the seed fallback. Each command resolves
its options into a RunConfig before touching any file. Diagnostics go
to stderr, data only to files; the exit code is 0 iff no error
occurred.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
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

_POLICIES = {
    "at-birth": IssuancePolicy.AT_BIRTH,
    "at-age-one": IssuancePolicy.AT_AGE_ONE,
    "full": IssuancePolicy.NUMBER_AND_CARD_AT_BIRTH,
}


@dataclass
class RunConfig:
    """A fully resolved run: the command, its numeric knobs, the input
    paths it will read and the directory it will write."""

    command: str
    horizon: int = 0
    seed: int = 0
    issuance_policy: IssuancePolicy = IssuancePolicy.AT_BIRTH
    inputs: dict = field(default_factory=dict)
    out_dir: Path = Path(".")
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.horizon < 0:
            raise DomainError(f"horizon must be >= 0, got {self.horizon}")
        for name, path in self.inputs.items():
            if not str(path):
                raise DomainError(f"--{name.replace('_', '-')} path is empty")

    def input_path(self, name: str) -> Path:
        return Path(self.inputs[name])

    @property
    def axis(self) -> AgeAxis:
        return AgeAxis(self.options.get("max_age", 100))

    @property
    def base_year(self) -> int:
        return self.options.get("base_year", 0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uidforge",
        description="Demographic projection and identity-card demand forecasting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value file with defaults for any flag")
        p.add_argument("--out", help="output directory")
        p.add_argument("--max-age", help="last age of life (default 100)")
        p.add_argument("--base-year", help="year label of the input pyramid (default 0)")

    def fertility_knobs(p):
        p.add_argument("--sex-ratio", help="male births per female birth")
        p.add_argument("--eligible-proportion", help="eligible fraction of women (default 1)")
        p.add_argument("--infant-mortality", help="deaths per 1000 live births (default 0)")

    p = sub.add_parser("project", help="project a population forward")
    common(p)
    p.add_argument("--population", help="population CSV (region,sex,age,count)")
    p.add_argument("--survival", help="survival CSV (region,sex,age,p)")
    p.add_argument("--fertility", help="fertility CSV (age,rate)")
    p.add_argument("--horizon", help="years to project")
    fertility_knobs(p)

    p = sub.add_parser("demand", help="annual card requirement series")
    common(p)
    p.add_argument("--population", help="population CSV (region,sex,age,count)")
    p.add_argument("--survival", help="survival CSV (region,sex,age,p)")
    p.add_argument("--fertility", help="fertility CSV (age,rate)")
    p.add_argument("--flows", help="flows CSV (rate or count schema)")
    p.add_argument("--policy", help="at-birth | at-age-one | full (default at-birth)")
    p.add_argument("--horizon", help="years to forecast")
    fertility_knobs(p)

    p = sub.add_parser("coverage", help="correct raw census counts")
    common(p)
    p.add_argument("--population", help="population CSV (region,sex,age,count)")
    p.add_argument("--omission", help="net omission per 1000 (default 0)")
    p.add_argument("--unknown-age", help="unknown-age CSV (sex,count)")

    p = sub.add_parser("estimate", help="posterior demand intensity via MCMC")
    common(p)
    p.add_argument("--observations", help="observations CSV (year,count,exposure)")
    p.add_argument("--prior-shape", help="Gamma prior shape")
    p.add_argument("--prior-rate", help="Gamma prior rate")
    p.add_argument("--samples", help="number of MCMC samples")
    p.add_argument("--seed", help=f"RNG seed (fallback: ${SEED_ENV_VAR}, then 0)")
    p.add_argument("--proposal-scale", help="random-walk scale on log beta (default 0.5)")

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
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args, key: str, default=None, required=False):
    """Flag value if given, else config-file value, else default."""
    cli_value = getattr(args, key, None)
    if cli_value is not None:
        return cli_value
    if key in args._config_values:
        return args._config_values[key]
    if required and default is None:
        raise DomainError(f"missing required option --{key.replace('_', '-')}")
    return default


def _as_int(name: str, value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise DomainError(f"--{name} must be an integer, got {value!r}") from None


def _as_float(name: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise DomainError(f"--{name} must be a number, got {value!r}") from None


def _resolve_seed(args) -> int:
    explicit = _resolve(args, "seed")
    if explicit is not None:
        return _as_int("seed", explicit)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return _as_int("seed", env)
    return 0


def _resolve_policy(args) -> IssuancePolicy:
    name = _resolve(args, "policy", "at-birth")
    if name not in _POLICIES:
        raise DomainError(f"--policy must be one of {sorted(_POLICIES)}, got {name!r}")
    return _POLICIES[name]


_REQUIRED_INPUTS = {
    "project": ("population", "survival", "fertility"),
    "demand": ("population", "survival", "fertility", "flows"),
    "coverage": ("population",),
    "estimate": ("observations",),
}


def _run_config(args, command: str) -> RunConfig:
    inputs = {
        name: _resolve(args, name, required=True) for name in _REQUIRED_INPUTS[command]
    }
    if command == "coverage":
        unknown = _resolve(args, "unknown_age")
        if unknown:
            inputs["unknown_age"] = unknown

    options = {
        "max_age": _as_int("max-age", _resolve(args, "max_age", 100)),
        "base_year": _as_int("base-year", _resolve(args, "base_year", 0)),
    }
    if command in ("project", "demand"):
        options["sex_ratio"] = _as_float("sex-ratio", _resolve(args, "sex_ratio", required=True))
        options["eligible_proportion"] = _as_float(
            "eligible-proportion", _resolve(args, "eligible_proportion", 1.0)
        )
        options["infant_mortality"] = _as_float(
            "infant-mortality", _resolve(args, "infant_mortality", 0.0)
        )
    if command == "coverage":
        options["omission"] = _as_float("omission", _resolve(args, "omission", 0.0))
    if command == "estimate":
        options["prior_shape"] = _as_float(
            "prior-shape", _resolve(args, "prior_shape", required=True)
        )
        options["prior_rate"] = _as_float(
            "prior-rate", _resolve(args, "prior_rate", required=True)
        )
        options["samples"] = _as_int("samples", _resolve(args, "samples", required=True))
        options["proposal_scale"] = _as_float(
            "proposal-scale", _resolve(args, "proposal_scale", 0.5)
        )

    horizon = 0
    if command in ("project", "demand"):
        horizon = _as_int("horizon", _resolve(args, "horizon", required=True))

    return RunConfig(
        command=command,
        horizon=horizon,
        seed=_resolve_seed(args),
        issuance_policy=_resolve_policy(args) if command == "demand" else IssuancePolicy.AT_BIRTH,
        inputs=inputs,
        out_dir=Path(_resolve(args, "out", required=True)),
        options=options,
    )


def _load_projection_inputs(cfg: RunConfig):
    axis = cfg.axis
    pyramids = load_population_csv(cfg.input_path("population"), axis, cfg.base_year)
    if not pyramids:
        raise DomainError("population file contains no data rows")
    schedules = load_survival_csv(cfg.input_path("survival"), axis)
    rates = load_fertility_csv(cfg.input_path("fertility"))
    fert = FertilityConfig(
        rates,
        eligible_proportion=cfg.options["eligible_proportion"],
        sex_ratio_at_birth=cfg.options["sex_ratio"],
        infant_mortality=cfg.options["infant_mortality"],
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


def _ensure_out_dir(cfg: RunConfig) -> Path:
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DomainError(f"cannot create output directory {cfg.out_dir}: {exc}") from exc
    return cfg.out_dir


def _cmd_project(cfg: RunConfig) -> int:
    pyramids, schedules, fert = _load_projection_inputs(cfg)
    regions = [(code, _schedule_for(code, schedules)) for code in sorted(pyramids)]
    out = _ensure_out_dir(cfg)
    emit_projection_csv(
        (
            (code, project_population(pyramids[code].densified(), schedule, fert, cfg.horizon))
            for code, schedule in regions
        ),
        out / "projection.csv",
    )
    return 0


def _cmd_demand(cfg: RunConfig) -> int:
    pyramids, schedules, fert = _load_projection_inputs(cfg)
    if len(pyramids) != 1:
        raise DomainError(
            f"demand needs a single-region population file, got {sorted(pyramids)}"
        )
    code, pyramid = next(iter(pyramids.items()))
    flows = load_flows_csv(cfg.input_path("flows"))
    series = annual_card_requirement_series(
        pyramid.densified(),
        _schedule_for(code, schedules),
        fert,
        flows,
        cfg.horizon,
        cfg.issuance_policy,
    )
    out = _ensure_out_dir(cfg)
    emit_demand_csv(series, out / "demand.csv")
    if len(series.rows) >= 2:
        render_series_chart(series, out / "demand.svg")
    else:
        print("demand: skipping chart (needs at least 2 rows)", file=sys.stderr)
    return 0


def _cmd_coverage(cfg: RunConfig) -> int:
    pyramids = load_population_csv(cfg.input_path("population"), cfg.axis, cfg.base_year)
    unknowns = (
        load_unknown_age_csv(cfg.input_path("unknown_age"))
        if "unknown_age" in cfg.inputs
        else {}
    )
    if unknowns and len(pyramids) != 1:
        raise DomainError("unknown-age allocation needs a single-region population file")
    coverage_cfg = CoverageConfig(
        omission_per_1000=cfg.options["omission"], unknown_age_counts=unknowns
    )
    adjusted = {}
    for code, pyramid in pyramids.items():
        fixed = apply_omission_adjustment(pyramid, coverage_cfg)
        if unknowns:
            fixed = allocate_unknown_age(fixed, coverage_cfg)
        adjusted[code] = fixed
    out = _ensure_out_dir(cfg)
    emit_population_csv(adjusted, out / "adjusted_population.csv")
    return 0


def _cmd_estimate(cfg: RunConfig) -> int:
    observations = load_observations_csv(cfg.input_path("observations"))
    prior = PriorSpec(shape=cfg.options["prior_shape"], rate=cfg.options["prior_rate"])
    chain = metropolis_sample(
        observations, prior, cfg.options["samples"], cfg.seed, cfg.options["proposal_scale"]
    )
    emit_posterior_csv(summarize_chain(chain), chain, _ensure_out_dir(cfg) / "posterior.csv")
    return 0


_COMMANDS = {
    "project": _cmd_project,
    "demand": _cmd_demand,
    "coverage": _cmd_coverage,
    "estimate": _cmd_estimate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config_path = getattr(args, "config", None)
        args._config_values = _load_config_file(config_path) if config_path else {}
        cfg = _run_config(args, args.command)
        # an overflow is reported once, by the writer or check that rejects its result
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command](cfg)
    except UidforgeError as exc:
        print(f"uidforge {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
