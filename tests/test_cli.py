import pytest

from uidforge import DomainError
from uidforge.cli import RunConfig, main


class TestRunConfig:
    def test_negative_horizon_rejected(self):
        with pytest.raises(DomainError):
            RunConfig(command="project", horizon=-1)

    def test_empty_input_path_rejected(self):
        with pytest.raises(DomainError):
            RunConfig(command="demand", inputs={"population": ""})

    def test_axis_and_base_year_come_from_options(self):
        cfg = RunConfig(command="project", options={"max_age": 60, "base_year": 2011})
        assert cfg.axis.max_age == 60
        assert cfg.base_year == 2011


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
        from uidforge.csvio import format_count, load_population_csv, load_survival_csv

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
                            f"{format_count(frame.count(sex, age))}"
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
