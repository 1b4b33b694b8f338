import contextlib
import csv
import io
import math
import re
import tempfile
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uidforge import RegionId, RegionLevel, StateRates, counts_from_rates
from uidforge import cli
from uidforge.cli import _OPTIONS, _as_path, _build_parser, _run_config, main


def write_population(path, region="IN", max_age=60, female=None, male=None):
    lines = ["region,sex,age,count"]
    female = female or {}
    male = male or {}
    for age in range(max_age + 1):
        lines.append(f"{region},F,{age},{female.get(age, 0.0)}")
        lines.append(f"{region},M,{age},{male.get(age, 0.0)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_survival(path, region="IN", max_age=60, p=0.98):
    lines = ["region,sex,age,p"]
    for sex in ("M", "F"):
        for age in range(max_age + 1):
            value = 0.0 if age == max_age else p
            lines.append(f"{region},{sex},{age},{value}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_fertility(path, rate=0.08):
    lines = ["age,rate"] + [f"{age},{rate}" for age in range(15, 50)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_flows(path):
    path.write_text(
        "state,births,deaths,in,out,immig,emig\nST,0,0,10,10,5,3\n", encoding="utf-8"
    )
    return path


def write_observations(path):
    path.write_text(
        "year,count,exposure\n2012,4,1.0\n2013,6,1.0\n", encoding="utf-8"
    )
    return path


def assert_one_line_error(capsys, command):
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"uidforge {command}: error: ")
    return err


#: Counts whose sums overflow a float.
HUGE = {20: 1.7e308, 21: 1.7e308, 22: 1.7e308}


@pytest.fixture
def inputs(tmp_path):
    return {
        "population": write_population(
            tmp_path / "pop.csv", female={14: 200.0, 20: 1000.0, 30: 500.0}, male={20: 800.0}
        ),
        "survival": write_survival(tmp_path / "surv.csv"),
        "fertility": write_fertility(tmp_path / "fert.csv"),
        "flows": write_flows(tmp_path / "flows.csv"),
        "out": tmp_path / "out",
    }


@pytest.fixture
def flag_values(inputs, tmp_path):
    """command -> {option name: flag value}, every option the command
    takes, for a run that succeeds."""
    unknown = tmp_path / "unknown.csv"
    unknown.write_text("sex,count\nF,170\n", encoding="utf-8")
    common = {"max_age": "60", "base_year": "2011", "out": str(inputs["out"])}
    projecting = {
        **{name: str(inputs[name]) for name in ("population", "survival", "fertility")},
        "horizon": "2",
        "sex_ratio": "1.05",
        "eligible_proportion": "0.9",
        "infant_mortality": "5",
        **common,
    }
    return {
        "project": projecting,
        "demand": {**projecting, "flows": str(inputs["flows"]), "policy": "full"},
        "coverage": {
            "population": str(inputs["population"]),
            "unknown_age": str(unknown),
            "omission": "20",
            **common,
        },
        "estimate": {
            "observations": str(write_observations(tmp_path / "obs.csv")),
            "prior_shape": "1",
            "prior_rate": "1",
            "samples": "2000",
            "seed": "3",
            "proposal_scale": "0.4",
            **common,
        },
    }


def as_argv(command, values):
    return [command] + [
        arg for name, value in values.items() for arg in (f"--{name.replace('_', '-')}", value)
    ]


def run_config(argv):
    return _run_config(_build_parser().parse_args(argv))


class TestProjectCommand:
    def test_writes_projection_frames(self, inputs):
        code = main(
            [
                "project",
                "--population", str(inputs["population"]),
                "--survival", str(inputs["survival"]),
                "--fertility", str(inputs["fertility"]),
                "--horizon", "3",
                "--sex-ratio", "1.05",
                "--max-age", "60",
                "--base-year", "2011",
                "--out", str(inputs["out"]),
            ]
        )
        assert code == 0
        text = (inputs["out"] / "projection.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "year,region,sex,age,count"
        years = {line.split(",")[0] for line in lines[1:]}
        assert years == {"2011", "2012", "2013", "2014"}

    def test_multi_region_rows_match_per_region_projection(self, tmp_path):
        # three regions, each with its own schedule; B lacks its top ages
        from uidforge import AgeAxis, FertilityConfig, Sex, project_population
        from uidforge.csvio import load_population_csv, load_survival_csv

        pop_lines = ["region,sex,age,count"]
        surv_lines = ["region,sex,age,p"]
        for i, code in enumerate(("C", "A", "B")):
            for sex in ("M", "F"):
                for age in range(61):
                    if code != "B" or age < 58:
                        pop_lines.append(f"{code},{sex},{age},{1000.0 + 37.5 * i + age / 3}")
                    p = 0.0 if age == 60 else 0.99 - 0.01 * i - 0.002 * age
                    surv_lines.append(f"{code},{sex},{age},{p}")
        population = tmp_path / "pop.csv"
        population.write_text("\n".join(pop_lines) + "\n", encoding="utf-8")
        survival = tmp_path / "surv.csv"
        survival.write_text("\n".join(surv_lines) + "\n", encoding="utf-8")
        fertility = write_fertility(tmp_path / "fert.csv")
        out = tmp_path / "out"
        code = main(
            [
                "project",
                "--population", str(population),
                "--survival", str(survival),
                "--fertility", str(fertility),
                "--horizon", "4",
                "--sex-ratio", "1.05",
                "--eligible-proportion", "0.9",
                "--max-age", "60",
                "--base-year", "2011",
                "--out", str(out),
            ]
        )
        assert code == 0

        axis = AgeAxis(60)
        pyramids = load_population_csv(population, axis, 2011)
        schedules = load_survival_csv(survival, axis)
        fert = FertilityConfig(
            {age: 0.08 for age in range(15, 50)}, eligible_proportion=0.9, sex_ratio_at_birth=1.05
        )
        lines = ["year,region,sex,age,count"]
        for region in sorted(pyramids):
            series = project_population(
                pyramids[region].densified(), schedules[region], fert, 4
            )
            for frame in series.frames:
                for sex in (Sex.FEMALE, Sex.MALE):
                    for age in axis.ages():
                        lines.append(
                            f"{frame.time_label},{region},{sex.value},{age},"
                            f"{float(frame.count(sex, age))!r}"
                        )
        expected = ("\n".join(lines) + "\n").encode("utf-8")
        assert (out / "projection.csv").read_bytes() == expected
        assert len(lines) == 1 + 3 * 5 * 2 * 61

    def test_failed_projection_leaves_no_file(self, inputs, tmp_path, capsys):
        # an axis ending before the reproductive ages fails at the first step
        population = write_population(tmp_path / "short.csv", max_age=30, female={20: 10.0})
        survival = write_survival(tmp_path / "short_surv.csv", max_age=30)
        code = main(
            [
                "project",
                "--population", str(population),
                "--survival", str(survival),
                "--fertility", str(inputs["fertility"]),
                "--horizon", "2",
                "--sex-ratio", "1.05",
                "--max-age", "30",
                "--out", str(inputs["out"]),
            ]
        )
        assert code == 1
        assert "reproductive ages" in capsys.readouterr().err
        assert not (inputs["out"] / "projection.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_projection_leaves_no_file(self, inputs, tmp_path, capsys):
        code = main(
            [
                "project",
                "--population", str(inputs["population"]),
                "--survival", str(inputs["survival"]),
                "--fertility", str(write_fertility(tmp_path / "huge.csv", rate=1e300)),
                "--horizon", "40",
                "--sex-ratio", "1.05",
                "--max-age", "60",
                "--base-year", "2011",
                "--out", str(inputs["out"]),
            ]
        )
        assert code == 1
        err = assert_one_line_error(capsys, "project")
        assert "region IN" in err and "not finite in year" in err
        assert not (inputs["out"] / "projection.csv").exists()

    def test_missing_required_flag_fails(self, inputs, capsys):
        code = main(
            [
                "project",
                "--population", str(inputs["population"]),
                "--survival", str(inputs["survival"]),
                "--fertility", str(inputs["fertility"]),
                "--horizon", "3",
                "--max-age", "60",
                "--out", str(inputs["out"]),
            ]
        )
        assert code == 1
        assert "sex-ratio" in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, inputs, tmp_path, capsys):
        code = main(
            [
                "project",
                "--population", str(tmp_path / "nope.csv"),
                "--survival", str(inputs["survival"]),
                "--fertility", str(inputs["fertility"]),
                "--horizon", "1",
                "--sex-ratio", "1.0",
                "--out", str(inputs["out"]),
            ]
        )
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err


class TestDemandCommand:
    def demand_args(self, inputs, *extra):
        return [
            "demand",
            "--population", str(inputs["population"]),
            "--survival", str(inputs["survival"]),
            "--fertility", str(inputs["fertility"]),
            "--flows", str(inputs["flows"]),
            "--horizon", "4",
            "--sex-ratio", "1.05",
            "--max-age", "60",
            "--base-year", "2011",
            "--out", str(inputs["out"]),
            *extra,
        ]

    def test_writes_series_and_chart(self, inputs):
        assert main(self.demand_args(inputs)) == 0
        demand = (inputs["out"] / "demand.csv").read_text().splitlines()
        assert demand[0] == "year,new_cards_male,new_cards_female,returned_cards"
        assert len(demand) == 5
        assert demand[1].startswith("2012,")
        svg = (inputs["out"] / "demand.svg").read_text()
        assert svg.count("<polyline") == 2

    def test_one_year_writes_the_series_and_skips_the_chart(self, inputs, capsys):
        assert main(self.demand_args(inputs, "--horizon", "1")) == 0
        demand = (inputs["out"] / "demand.csv").read_text().splitlines()
        assert len(demand) == 2 and demand[1].startswith("2012,")
        assert sorted(p.name for p in inputs["out"].iterdir()) == ["demand.csv"]
        assert capsys.readouterr().err == "demand: skipping chart (needs at least 2 rows)\n"

    def test_policy_flag_changes_output(self, inputs, tmp_path):
        assert main(self.demand_args(inputs, "--policy", "full")) == 0
        full = (inputs["out"] / "demand.csv").read_text()
        out2 = tmp_path / "out2"
        args = self.demand_args(inputs)
        args[args.index(str(inputs["out"]))] = str(out2)
        assert main(args) == 0
        assert (out2 / "demand.csv").read_text() != full

    def test_bad_policy_rejected(self, inputs, capsys):
        assert main(self.demand_args(inputs, "--policy", "sometimes")) == 1
        assert "policy" in capsys.readouterr().err

    def test_multi_region_population_rejected(self, inputs, tmp_path, capsys):
        multi = tmp_path / "multi.csv"
        text = (inputs["population"]).read_text().splitlines()
        extra = [line.replace("IN,", "XX,", 1) for line in text[1:]]
        multi.write_text("\n".join(text + extra) + "\n", encoding="utf-8")
        args = self.demand_args(inputs)
        args[args.index(str(inputs["population"]))] = str(multi)
        assert main(args) == 1
        assert "single-region" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("policy", ["at-birth", "at-age-one", "full"])
    def test_overflowing_counts_fail_in_one_line(self, inputs, tmp_path, capsys, policy):
        inputs["population"] = write_population(tmp_path / "huge.csv", female=HUGE, male=HUGE)
        assert main(self.demand_args(inputs, "--policy", policy)) == 1
        assert "not finite" in assert_one_line_error(capsys, "demand")
        assert not (inputs["out"] / "demand.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "cells",
        [{20: 1e19}, {20: 4.5e18, 30: 4.5e18}],
        ids=["stock-beyond-int64", "running-total-beyond-int64"],
    )
    def test_finite_counts_beyond_int64_fail_in_one_line(self, inputs, tmp_path, capsys, cells):
        # 9e18 starting cards fit in int64; the first year's births push past
        inputs["population"] = write_population(tmp_path / "huge.csv", female=cells)
        assert main(self.demand_args(inputs)) == 1
        assert "int64" in assert_one_line_error(capsys, "demand")
        assert not (inputs["out"] / "demand.csv").exists()

    @pytest.mark.parametrize(
        "base_year, horizon, year",
        [("99999999999999999999", "4", 10**20 - 1), ("9223372036854775803", "5", 2**63)],
        ids=["base-year-beyond-int64", "last-year-beyond-int64"],
    )
    def test_year_beyond_int64_fails_in_one_line(self, inputs, capsys, base_year, horizon, year):
        args = self.demand_args(inputs, "--base-year", base_year, "--horizon", horizon)
        assert main(args) == 1
        err = assert_one_line_error(capsys, "demand")
        assert err == (
            f"uidforge demand: error: year {year} lies outside the int64 range "
            "-9223372036854775808..9223372036854775807\n"
        )
        assert list(inputs["out"].glob("*")) == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_projection_fails_in_one_line(self, inputs, tmp_path, capsys):
        # unit survival turns the infinite newborn counts into inf * 0 deaths
        inputs["population"] = write_population(tmp_path / "huge.csv", female={20: 1e300})
        inputs["survival"] = write_survival(tmp_path / "unit.csv", p=1.0)
        inputs["fertility"] = write_fertility(tmp_path / "fert.csv", rate=1e10)
        assert main(self.demand_args(inputs)) == 1
        assert "finite" in assert_one_line_error(capsys, "demand")
        assert not (inputs["out"] / "demand.csv").exists()

    @pytest.mark.parametrize("policy", ["at-birth", "at-age-one", "full"])
    def test_rate_and_implied_count_schemas_write_the_same_demand(
        self, inputs, tmp_path, policy
    ):
        # in/out rates balance: 0.03 * 1000 + 0.02 * 500 == 0.02 * 1000 + 0.04 * 500
        rates = [
            StateRates(RegionId("A", RegionLevel.STATE), 1000.0, 0.02, 0.008, 0.03, 0.02),
            StateRates(RegionId("B", RegionLevel.STATE), 500.0, 0.018, 0.009, 0.02, 0.04),
        ]
        rate_lines = ["state,population,b,d,m,e"] + [
            ",".join([r.state.code] + [repr(v) for v in astuple(r)[1:]]) for r in rates
        ]
        count_lines = ["state,births,deaths,in,out,immig,emig"] + [
            ",".join([r.state.code] + [repr(v) for v in astuple(counts_from_rates(r))[1:]])
            for r in rates
        ]
        written = {}
        for schema, lines in (("rate", rate_lines), ("count", count_lines)):
            flows = tmp_path / f"{schema}.csv"
            flows.write_text("\n".join(lines) + "\n", encoding="utf-8")
            out = tmp_path / schema
            args = self.demand_args(inputs, "--policy", policy)
            args[args.index(str(inputs["flows"]))] = str(flows)
            args[args.index(str(inputs["out"]))] = str(out)
            assert main(args) == 0
            written[schema] = [(out / name).read_bytes() for name in ("demand.csv", "demand.svg")]
        assert written["rate"] == written["count"]


class TestCoverageCommand:
    def test_omission_adjustment(self, inputs, tmp_path):
        code = main(
            [
                "coverage",
                "--population", str(inputs["population"]),
                "--omission", "20",
                "--max-age", "60",
                "--out", str(inputs["out"]),
            ]
        )
        assert code == 0
        from uidforge.csvio import load_population_csv
        from uidforge import AgeAxis

        back = load_population_csv(inputs["out"] / "adjusted_population.csv", AgeAxis(60))
        assert back["IN"].total() == pytest.approx((200 + 1000 + 500 + 800) / 0.98, rel=1e-12)

    def test_unknown_age_allocation(self, inputs, tmp_path):
        unknown = tmp_path / "unknown.csv"
        unknown.write_text("sex,count\nF,170\n", encoding="utf-8")
        code = main(
            [
                "coverage",
                "--population", str(inputs["population"]),
                "--omission", "0",
                "--unknown-age", str(unknown),
                "--max-age", "60",
                "--out", str(inputs["out"]),
            ]
        )
        assert code == 0
        from uidforge.csvio import load_population_csv
        from uidforge import AgeAxis, Sex

        back = load_population_csv(inputs["out"] / "adjusted_population.csv", AgeAxis(60))
        assert back["IN"].total(Sex.FEMALE) == pytest.approx(1700 + 170, rel=1e-12)
        assert back["IN"].total(Sex.MALE) == 800.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_adjustment_leaves_no_file(self, inputs, tmp_path, capsys):
        population = write_population(tmp_path / "huge.csv", female=HUGE)
        code = main(
            [
                "coverage",
                "--population", str(population),
                "--omission", "500",
                "--max-age", "60",
                "--out", str(inputs["out"]),
            ]
        )
        assert code == 1
        err = assert_one_line_error(capsys, "coverage")
        assert "region IN" in err and "not finite" in err
        assert not (inputs["out"] / "adjusted_population.csv").exists()

    def test_non_finite_count_fails_cleanly(self, inputs, tmp_path, capsys):
        population = write_population(tmp_path / "nan.csv", female={20: "nan"})
        code = main(
            [
                "coverage",
                "--population", str(population),
                "--omission", "20",
                "--max-age", "60",
                "--out", str(inputs["out"]),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "nan.csv:42:" in err and "not finite" in err
        assert not (inputs["out"] / "adjusted_population.csv").exists()

    def test_region_code_that_cannot_be_written_back_fails_at_its_line(self, tmp_path, capsys):
        population = tmp_path / "quoted.csv"
        population.write_text('region,sex,age,count\n"A,B",F,0,1\n', encoding="utf-8")
        out = tmp_path / "out"
        code = main(["coverage", "--population", str(population), "--max-age", "3", "--out", str(out)])
        assert code == 1
        err = assert_one_line_error(capsys, "coverage")
        assert f"{population}:2: region code 'A,B'" in err
        assert not (out / "adjusted_population.csv").exists()

    def test_max_age_above_the_limit_fails_in_one_line(self, flag_values, capsys):
        values = {**flag_values["coverage"], "max_age": "151"}
        assert main(as_argv("coverage", values)) == 1
        err = assert_one_line_error(capsys, "coverage")
        assert "max_age must be an integer in 1..150, got 151" in err
        assert list(Path(values["out"]).glob("*")) == []

    def test_seed_sources_are_ignored(self, flag_values, tmp_path, monkeypatch):
        # coverage takes no seed: a bad $UIDFORGE_SEED or config seed must not fail it
        values = flag_values["coverage"]
        assert main(as_argv("coverage", values)) == 0
        expected = (Path(values["out"]) / "adjusted_population.csv").read_bytes()
        config = tmp_path / "seed.cfg"
        config.write_text("seed=x\n", encoding="utf-8")
        monkeypatch.setenv("UIDFORGE_SEED", "abc")
        for i, extra in enumerate(([], ["--config", str(config)])):
            out = tmp_path / f"seeded{i}"
            argv = as_argv("coverage", {**values, "out": str(out)}) + extra
            assert main(argv) == 0
            assert (out / "adjusted_population.csv").read_bytes() == expected


class TestEstimateCommand:
    def estimate_args(self, tmp_path, out, *extra):
        obs = write_observations(tmp_path / "obs.csv")
        return [
            "estimate",
            "--observations", str(obs),
            "--prior-shape", "1.0",
            "--prior-rate", "1.0",
            "--samples", "20000",
            "--out", str(out),
            *extra,
        ]

    def test_posterior_summary_written(self, tmp_path):
        out = tmp_path / "out"
        assert main(self.estimate_args(tmp_path, out, "--seed", "7")) == 0
        lines = (out / "posterior.csv").read_text().splitlines()
        assert lines[0].startswith("mean,variance,ci_low,ci_high")
        mean = float(lines[1].split(",")[0])
        assert abs(mean - 11.0 / 3.0) / (11.0 / 3.0) < 0.05

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        out_env = tmp_path / "env"
        out_flag = tmp_path / "flag"
        monkeypatch.setenv("UIDFORGE_SEED", "99")
        assert main(self.estimate_args(tmp_path, out_env)) == 0
        monkeypatch.delenv("UIDFORGE_SEED")
        assert main(self.estimate_args(tmp_path, out_flag, "--seed", "99")) == 0
        assert (out_env / "posterior.csv").read_bytes() == (
            out_flag / "posterior.csv"
        ).read_bytes()

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        monkeypatch.setenv("UIDFORGE_SEED", "1")
        assert main(self.estimate_args(tmp_path, out_a, "--seed", "2")) == 0
        monkeypatch.delenv("UIDFORGE_SEED")
        assert main(self.estimate_args(tmp_path, out_b, "--seed", "2")) == 0
        assert (out_a / "posterior.csv").read_bytes() == (out_b / "posterior.csv").read_bytes()

    def test_bad_env_seed_fails_in_one_line(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        monkeypatch.setenv("UIDFORGE_SEED", "abc")
        assert main(self.estimate_args(tmp_path, out)) == 1
        err = assert_one_line_error(capsys, "estimate")
        assert "--seed must be an integer, got 'abc'" in err
        assert not (out / "posterior.csv").exists()

    @pytest.mark.parametrize("spelling", ["flag", "env"])
    def test_negative_seed_fails_in_one_line(self, tmp_path, monkeypatch, capsys, spelling):
        out = tmp_path / "out"
        monkeypatch.setenv("UIDFORGE_SEED", "-1")
        extra = ("--seed=-1",) if spelling == "flag" else ()
        assert main(self.estimate_args(tmp_path, out, *extra)) == 1
        assert "seed must be >= 0, got -1" in assert_one_line_error(capsys, "estimate")
        assert not (out / "posterior.csv").exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ("--prior-shape", "1", "--prior-rate", "inf"),
            ("--prior-shape", "1e-320", "--prior-rate", "1e300"),
            ("--proposal-scale", "inf"),
        ],
        ids=["infinite-prior-rate", "start-underflows-to-zero", "infinite-proposal-scale"],
    )
    def test_degenerate_prior_or_proposal_fails_in_one_line(self, tmp_path, capsys, extra):
        out = tmp_path / "out"
        assert main(self.estimate_args(tmp_path, out, *extra)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("uidforge estimate: error: ")
        assert not (out / "posterior.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_posterior_leaves_no_file(self, tmp_path, capsys):
        # posterior Gamma(91, 3e-300): the mean is 3e301 and the variance overflows
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("year,count,exposure\n2012,50,1e-300\n2013,40,1e-300\n", "utf-8")
        out = tmp_path / "out"
        extra = ("--observations", str(tiny), "--prior-rate", "1e-300")
        assert main(self.estimate_args(tmp_path, out, *extra)) == 1
        assert "not finite" in assert_one_line_error(capsys, "estimate")
        assert not (out / "posterior.csv").exists()

    def test_output_directory_under_a_file_fails_in_one_line(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        assert main(self.estimate_args(tmp_path, afile / "sub")) == 1
        err = assert_one_line_error(capsys, "estimate")
        assert "cannot create output directory" in err and str(afile / "sub") in err


class TestOutOfMemory:
    @pytest.mark.parametrize(
        "command, option, size",
        [
            ("estimate", "samples", 10**18),
            ("project", "horizon", 10**15),
            ("demand", "horizon", 10**15),
        ],
    )
    def test_a_size_beyond_any_memory_fails_in_one_line(
        self, flag_values, capsys, command, option, size
    ):
        # far beyond any address space: numpy fails before allocating anything
        values = {**flag_values[command], option: str(size)}
        assert main(as_argv(command, values)) == 1
        err = assert_one_line_error(capsys, command)
        assert err.startswith(f"uidforge {command}: error: out of memory: ")
        assert list(Path(values["out"]).glob("*")) == []

    def test_a_memory_error_without_a_reason_fails_in_one_line(
        self, flag_values, capsys, monkeypatch
    ):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "metropolis_sample", exhausted)
        assert main(as_argv("estimate", flag_values["estimate"])) == 1
        assert capsys.readouterr().err == "uidforge estimate: error: out of memory\n"


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, inputs, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "# projection defaults",
                    f"population={inputs['population']}",
                    f"survival={inputs['survival']}",
                    f"fertility={inputs['fertility']}",
                    "horizon=2",
                    "sex-ratio=1.05",
                    "max-age=60",
                    "base-year=2011",
                    f"out={inputs['out']}",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        assert main(["project", "--config", str(cfg)]) == 0
        lines = (inputs["out"] / "projection.csv").read_text().splitlines()
        years = {line.split(",")[0] for line in lines[1:]}
        assert years == {"2011", "2012", "2013"}

        out2 = tmp_path / "out2"
        assert main(["project", "--config", str(cfg), "--horizon", "1", "--out", str(out2)]) == 0
        years2 = {
            line.split(",")[0]
            for line in (out2 / "projection.csv").read_text().splitlines()[1:]
        }
        assert years2 == {"2011", "2012"}

    def test_unknown_key_rejected(self, flag_values, tmp_path, capsys):
        config = tmp_path / "typo.cfg"
        config.write_text("# coverage\nomision=25\n", encoding="utf-8")
        argv = as_argv("coverage", flag_values["coverage"]) + ["--config", str(config)]
        assert main(argv) == 1
        err = assert_one_line_error(capsys, "coverage")
        assert err.endswith(f"{config}:2: unknown option 'omision'\n")
        assert not (Path(flag_values["coverage"]["out"]) / "adjusted_population.csv").exists()

    @pytest.mark.parametrize("command", ["project", "demand", "coverage", "estimate"])
    def test_empty_config_path_rejected(self, flag_values, capsys, command):
        # an empty --config used to be read as no config file at all
        assert main(as_argv(command, flag_values[command]) + ["--config", ""]) == 1
        err = assert_one_line_error(capsys, command)
        assert err.endswith("--config path is empty\n")
        assert not Path(flag_values[command]["out"]).exists()

    def test_one_file_serves_project_and_demand(self, flag_values, tmp_path):
        # flows and policy name options of demand only; project accepts them
        config = tmp_path / "run.cfg"
        config.write_text(
            "".join(f"{name}={value}\n" for name, value in flag_values["demand"].items()),
            encoding="utf-8",
        )
        for command, output in (("project", "projection.csv"), ("demand", "demand.csv")):
            out = tmp_path / command
            assert main([command, "--config", str(config), "--out", str(out)]) == 0
            assert (out / output).exists()


class TestOptionTable:
    @pytest.mark.parametrize("sep", ["-", "_"])
    @pytest.mark.parametrize("command", ["project", "demand", "coverage", "estimate"])
    def test_flag_and_config_key_give_equal_values(self, flag_values, tmp_path, command, sep):
        values = flag_values[command]
        assert set(values) == {name for name, row in _OPTIONS.items() if command in row[0]}
        by_flag = run_config(as_argv(command, values))
        assert set(by_flag) == set(values)
        config = tmp_path / "one.cfg"
        for name, value in values.items():
            config.write_text(f"{name.replace('_', sep)} = {value}\n", encoding="utf-8")
            rest = {key: v for key, v in values.items() if key != name}
            by_key = run_config(as_argv(command, rest) + ["--config", str(config)])
            assert by_key == by_flag, name

    @pytest.mark.parametrize(
        "command, n_flags", [("project", 11), ("demand", 13), ("coverage", 7), ("estimate", 10)]
    )
    def test_help_lists_the_commands_flags(self, capsys, monkeypatch, command, n_flags):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        rows = {name: row for name, row in _OPTIONS.items() if command in row[0]}
        flags = {"--" + name.replace("_", "-") for name in rows}
        assert set(re.findall(r"--[a-z][a-z-]*", out)) == flags | {"--help", "--config"}
        assert len(flags) + 1 == n_flags
        for name, (_, _, _, text) in rows.items():
            assert (text if isinstance(text, str) else text[command]) in out, name

    @pytest.mark.parametrize(
        "option", [name for name, row in _OPTIONS.items() if row[1] is _as_path]
    )
    def test_empty_path_rejected(self, flag_values, tmp_path, monkeypatch, capsys, option):
        # an empty --out used to write into the working directory
        command = _OPTIONS[option][0][0]
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(as_argv(command, {**flag_values[command], option: ""})) == 1
        err = assert_one_line_error(capsys, command)
        assert err.endswith(f"--{option.replace('_', '-')} path is empty\n")
        assert list(cwd.iterdir()) == []
        assert not Path(flag_values[command]["out"]).exists()


def header_only_population(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("region,sex,age,count\n", encoding="utf-8")
    return str(path)


def survival_of_other_regions(tmp_path):
    path = write_survival(tmp_path / "two.csv", region="A")
    lines = path.read_text(encoding="utf-8").splitlines()
    lines += [line.replace("A,", "B,", 1) for line in lines[1:]]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def config_without_equals(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("# seed\nseed 3\n", encoding="utf-8")
    return str(path)


#: name -> (command, option, its bad value or a function of tmp_path that
#: writes it, the message; ``{name}`` in it is the value of that option)
BAD_RUNS = {
    "negative-horizon": ("project", "horizon", "-1", "horizon must be >= 0, got -1"),
    "sex-ratio-not-a-number": (
        "demand", "sex_ratio", "abc", "--sex-ratio must be a number, got 'abc'"
    ),
    "header-only-population": (
        "project", "population", header_only_population, "population file contains no data rows"
    ),
    "survival-lacks-the-region": (
        "project",
        "survival",
        survival_of_other_regions,
        "no survival schedule for region 'IN' and the file is not single-region",
    ),
    "missing-config-file": (
        "coverage",
        "config",
        lambda tmp_path: str(tmp_path / "missing.cfg"),
        "cannot read config file {config}: [Errno 2] No such file or directory: {config!r}",
    ),
    "config-line-without-equals": (
        "estimate", "config", config_without_equals, "{config}:2: expected key=value, got 'seed 3'"
    ),
}


@pytest.mark.parametrize("command, option, value, message", BAD_RUNS.values(), ids=BAD_RUNS)
def test_bad_input_fails_in_one_line_before_any_output(
    flag_values, tmp_path, capsys, command, option, value, message
):
    values = {**flag_values[command], option: value(tmp_path) if callable(value) else value}
    assert main(as_argv(command, values)) == 1
    err = assert_one_line_error(capsys, command)
    assert err == f"uidforge {command}: error: {message.format(**values)}\n"
    assert not Path(values["out"]).exists()


# ---------------------------------------------------------------- fuzz

#: column kind -> (strategy of valid cells, strategy of invalid cells)
_CELLS = {
    "code": (st.sampled_from(["IN"] * 5 + ["Infanta"]), st.just("")),
    "sex": (st.sampled_from(["F", "M"]), st.sampled_from(["X", ""])),
    "age": (st.integers(0, 60).map(str), st.sampled_from(["-1", "61", "500", "", "2.5"])),
    "year": (st.integers(2000, 2030).map(str), st.sampled_from(["", "x"])),
    "int": (st.integers(0, 50).map(str), st.sampled_from(["-2", "1e308", "nan", ""])),
    "number": (
        st.one_of(st.sampled_from(["1e308", "1.7e308", "0", "20"]), st.floats(0, 1e4).map(repr)),
        st.one_of(
            st.sampled_from(["nan", "inf", "-inf", "-1", "", "x"]),
            st.floats(allow_nan=True, allow_infinity=True).map(repr),
        ),
    ),
}
_PER_1000 = st.one_of(st.sampled_from([0.0, 500.0, 999.0]), st.floats(0, 1000, exclude_max=True))
#: the default year label, the int64 edges that a 4-year horizon still
#: fits in or just passes, and a Python int beyond them
_BASE_YEAR = st.sampled_from(
    [0, 0, 0, 0, -(2**63), -(2**63) - 1, 2**63 - 5, 2**63 - 4, 2**63 - 1, 10**20]
)
_CELL = ("code", "sex", "age", "number")
#: input name -> (text of the valid base file, column kinds of one row);
#: the population is sparse so that appended cells need not collide
_FUZZ_INPUTS = {
    "population": (
        "region,sex,age,count\nIN,F,14,200\nIN,F,20,1000\nIN,F,30,500\nIN,M,20,800\n",
        _CELL,
    ),
    "survival": (
        "region,sex,age,p\n"
        + "".join(f"IN,{sex},{age},{0.98 * (age < 60)}\n" for sex in "MF" for age in range(61)),
        _CELL,
    ),
    "fertility": ("age,rate\n" + "".join(f"{a},0.08\n" for a in range(20, 31)), ("age", "number")),
    "flows": (
        "state,births,deaths,in,out,immig,emig\nST,0,0,10,10,5,3\n",
        ("code",) + ("number",) * 6,
    ),
    "rate-flows": (
        "state,population,b,d,m,e\nST,1000,0.02,0.008,0.01,0.01\n",
        ("code",) + ("number",) * 5,
    ),
    "unknown-age": ("sex,count\nF,170\n", ("sex", "number")),
    "observations": ("year,count,exposure\n2012,4,1.0\n2013,6,1.0\n", ("year", "int", "number")),
}
_FUZZ_OUTPUTS = {
    "project": ("projection.csv",),
    "demand": ("demand.csv", "demand.svg"),
    "coverage": ("adjusted_population.csv",),
    "estimate": ("posterior.csv",),
}


@st.composite
def _fuzz_rows(draw, kinds):
    """1..4 rows of valid cells; in about half the draws one row has one
    invalid cell, or a field too few or too many."""
    valid_row = st.tuples(*(_CELLS[kind][0] for kind in kinds)).map(list)
    rows = draw(st.lists(valid_row, min_size=1, max_size=4))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    fault = draw(st.sampled_from([None, None, None, "cell", "cell", "short", "long"]))
    if fault == "cell":
        k = draw(st.integers(0, len(row) - 1))
        row[k] = draw(_CELLS[kinds[k]][1])
    elif fault == "short":
        row.pop()
    elif fault == "long":
        row.append("1")
    return [",".join(row) for row in rows]


@st.composite
def _fuzz_runs(draw):
    """(command, input name -> file text, target, rows, extra flags): 1..4
    random ``rows`` are appended to the input file ``target``, or with
    ``target`` None to none of them."""
    command = draw(st.sampled_from(sorted(_FUZZ_OUTPUTS)))
    flows = draw(st.sampled_from(["flows", "rate-flows"]))
    names = {
        "project": ["population", "survival", "fertility"],
        "demand": ["population", "survival", "fertility", flows],
        "coverage": ["population"] + ["unknown-age"] * draw(st.booleans()),
        "estimate": ["observations"],
    }[command]
    texts = {name: _FUZZ_INPUTS[name][0] for name in names}
    target = draw(st.sampled_from([*names, None]))
    rows = draw(_fuzz_rows(_FUZZ_INPUTS[target or names[0]][1]))
    if command == "estimate":
        extra = ["--prior-shape", "1", "--prior-rate", "1", "--samples", "2000"]
    elif command == "coverage":
        extra = ["--omission", repr(draw(_PER_1000))]
    else:
        imr = repr(draw(_PER_1000))
        extra = ["--horizon", "4", "--sex-ratio", "1.05", "--infant-mortality", imr]
        extra += ["--base-year", str(draw(_BASE_YEAR))]
        if command == "demand":
            extra += ["--policy", draw(st.sampled_from(["at-birth", "at-age-one", "full"]))]
    return command, texts, target, rows, extra


def _non_finite_fields(path: Path) -> list:
    """Fields of a CSV file, or numbers of an SVG file, that parse as a
    non-finite float."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".svg":
        return re.findall(r"(?<![a-z])(?:nan|inf)(?![a-z])", text)
    bad = []
    for row in csv.reader(io.StringIO(text)):
        for cell in row:
            with contextlib.suppress(ValueError):
                if not math.isfinite(float(cell)):
                    bad.append(cell)
    return bad


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, deadline=None, max_examples=400)
@given(_fuzz_runs())
def test_cli_fuzz_exits_cleanly(run):
    """Random rows appended to valid inputs end in exit 0 with finite
    outputs, or in exit 1 with one stderr line and no output file."""
    command, texts, target, rows, extra = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        argv = [command, "--max-age", "60", "--out", str(out), *extra]
        for name, text in texts.items():
            path = tmp / f"{name}.csv"
            path.write_text(text + "".join(f"{row}\n" for row in rows if name == target), "utf-8")
            argv += [f"--{name.removeprefix('rate-')}", str(path)]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(argv)
        written = [out / name for name in _FUZZ_OUTPUTS[command] if (out / name).exists()]
        if code == 1:
            err = stderr.getvalue()
            assert err.count("\n") == 1 and err.startswith(f"uidforge {command}: error: "), err
            assert written == []
        else:
            assert code == 0
            assert written
            for path in written:
                assert _non_finite_fields(path) == [], path.name
