import pytest

from uidforge import (
    AgeAxis,
    ConsistencyError,
    DataError,
    DemandRow,
    DemandSeries,
    InsufficientDataError,
    ParseError,
    RegionId,
    Sex,
    StateFlows,
)
from uidforge.csvio import (
    emit_demand_csv,
    emit_flows_csv,
    emit_population_csv,
    load_flows_csv,
    load_population_csv,
    load_survival_csv,
    render_series_chart,
)
from conftest import dense_pyramid


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadPopulation:
    def test_header_only_is_empty_dataset(self, tmp_path):
        path = write(tmp_path, "pop.csv", "region,sex,age,count\n")
        assert load_population_csv(path) == {}

    def test_single_cell(self, tmp_path):
        path = write(tmp_path, "pop.csv", "region,sex,age,count\nIN,F,20,1000\n")
        pyramids = load_population_csv(path)
        assert list(pyramids) == ["IN"]
        assert pyramids["IN"].count(Sex.FEMALE, 20) == 1000.0
        assert pyramids["IN"].has_cell(Sex.FEMALE, 20)
        assert not pyramids["IN"].has_cell(Sex.MALE, 20)

    def test_national_totals_load_exactly(self, tmp_path):
        # 2011 provisional totals: 623M males, 586M females
        lines = ["region,sex,age,count"]
        for age in range(100):
            lines.append(f"IN,M,{age},{6.23e6}")
            lines.append(f"IN,F,{age},{5.86e6}")
        path = write(tmp_path, "pop.csv", "\n".join(lines) + "\n")
        pyramids = load_population_csv(path)
        assert pyramids["IN"].total(Sex.MALE) == 623e6
        assert pyramids["IN"].total(Sex.FEMALE) == 586e6

    def test_missing_header_rejected(self, tmp_path):
        path = write(tmp_path, "pop.csv", "IN,F,20,1000\n")
        with pytest.raises(ParseError, match="header"):
            load_population_csv(path)

    def test_negative_count_rejected_with_line(self, tmp_path):
        path = write(tmp_path, "pop.csv", "region,sex,age,count\nIN,F,20,-5\n")
        with pytest.raises(DataError) as err:
            load_population_csv(path)
        assert err.value.line_no == 2
        assert "pop.csv" in str(err.value)

    @pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf", "1e999"])
    def test_non_finite_count_rejected_with_line(self, tmp_path, text):
        path = write(tmp_path, "pop.csv", f"region,sex,age,count\nIN,F,20,1\nIN,F,21,{text}\n")
        with pytest.raises(DataError, match="not finite") as err:
            load_population_csv(path)
        assert err.value.line_no == 3
        assert "pop.csv" in str(err.value)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(
            tmp_path, "pop.csv", "region,sex,age,count\nIN,F,20,1\nIN,F,20,2\n"
        )
        with pytest.raises(DataError, match="duplicate"):
            load_population_csv(path)

    def test_age_beyond_axis_rejected(self, tmp_path):
        path = write(tmp_path, "pop.csv", "region,sex,age,count\nIN,F,120,1\n")
        with pytest.raises(ParseError, match="age 120"):
            load_population_csv(path, AgeAxis(100))

    def test_bad_sex_and_bad_number_carry_line_numbers(self, tmp_path):
        path = write(tmp_path, "pop.csv", "region,sex,age,count\nIN,X,20,1\n")
        with pytest.raises(ParseError, match="sex"):
            load_population_csv(path)
        path = write(tmp_path, "pop2.csv", "region,sex,age,count\nIN,F,20,abc\n")
        with pytest.raises(ParseError) as err:
            load_population_csv(path)
        assert err.value.line_no == 2

    def test_round_trip_is_field_exact(self, tmp_path, region, axis):
        pyramid = dense_pyramid(
            region, 2011, axis, female={20: 0.1 + 0.2, 31: 1e-7}, male={40: 12345.6789}
        )
        out = tmp_path / "out.csv"
        emit_population_csv({"IN": pyramid}, out)
        back = load_population_csv(out, axis, time_label=2011)
        assert back["IN"].counts == pyramid.counts


class TestLoadFlows:
    def test_count_schema_with_balanced_interstate(self, tmp_path):
        path = write(
            tmp_path,
            "flows.csv",
            "state,births,deaths,in,out,immig,emig\nA,10,5,3,7,1,0\nB,20,2,7,3,0,2\n",
        )
        flows = load_flows_csv(path)
        assert len(flows) == 2
        assert flows[0].interstate_in == 3.0
        assert flows[1].emigration == 2.0

    def test_unbalanced_interstate_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "flows.csv",
            "state,births,deaths,in,out,immig,emig\nA,10,5,3,9,1,0\n",
        )
        with pytest.raises(ConsistencyError, match="close"):
            load_flows_csv(path)

    def test_rate_schema_round_trips_bit_exact(self, tmp_path):
        flows = [
            StateFlows.from_rates(RegionId("A"), 1e6, 0.021, 0.0079, 0.001, 0.0012),
            StateFlows.from_rates(RegionId("B"), 2.5e5, 0.018, 0.009, 0.0, 0.0003),
        ]
        path = tmp_path / "flows.csv"
        emit_flows_csv(flows, path)
        back = load_flows_csv(path)
        assert [f.state.code for f in back] == ["A", "B"]
        for orig, loaded in zip(flows, back):
            for field in ("population", "birth_rate", "death_rate", "in_rate", "out_rate"):
                assert getattr(loaded, field) == getattr(orig, field)

    def test_count_schema_round_trips(self, tmp_path):
        from uidforge import RegionLevel

        flows = [
            StateFlows.from_counts(RegionId("A", RegionLevel.STATE), 10, 5, 3, 7, 1, 0),
            StateFlows.from_counts(RegionId("B", RegionLevel.STATE), 20, 2, 7, 3, 0, 2),
        ]
        path = tmp_path / "flows.csv"
        emit_flows_csv(flows, path)
        back = load_flows_csv(path)
        for orig, loaded in zip(flows, back):
            assert loaded == orig

    def test_unknown_header_rejected(self, tmp_path):
        path = write(tmp_path, "flows.csv", "state,x,y\nA,1,2\n")
        with pytest.raises(ParseError, match="neither"):
            load_flows_csv(path)


class TestEmitDemand:
    def series(self, rows):
        return DemandSeries(rows[0].year if rows else 2012, tuple(rows))

    def test_empty_series_writes_header_only(self, tmp_path):
        path = tmp_path / "demand.csv"
        emit_demand_csv(self.series([]), path)
        assert path.read_bytes() == b"year,new_cards_male,new_cards_female,returned_cards\n"

    def test_rounding_is_half_to_even(self, tmp_path):
        rows = [
            DemandRow(2012, 2.5, 3.5, 0.5),
            DemandRow(2013, 176.2, 272.9, 97.0),
        ]
        path = tmp_path / "demand.csv"
        emit_demand_csv(self.series(rows), path)
        lines = path.read_text().splitlines()
        assert lines[1] == "2012,2,4,0"
        assert lines[2] == "2013,176,273,97"

    def test_reemission_is_byte_identical(self, tmp_path):
        rows = [DemandRow(2012, 10.2, 11.7, 3.0), DemandRow(2013, 9.9, 12.1, 4.0)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_demand_csv(self.series(rows), a)
        emit_demand_csv(self.series(rows), b)
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_is_io_error(self, tmp_path):
        with pytest.raises(ParseError, match="cannot write"):
            emit_demand_csv(self.series([]), tmp_path / "missing_dir" / "demand.csv")


class TestRenderChart:
    def rows(self, n):
        return [DemandRow(2012 + k, 100.0 + k, 90.0 + 2 * k, 5.0) for k in range(n)]

    def test_two_rows_give_two_polylines(self, tmp_path):
        path = tmp_path / "chart.svg"
        render_series_chart(DemandSeries(2012, tuple(self.rows(2))), path)
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert text.startswith("<?xml")
        assert "year</text>" in text and "new cards</text>" in text

    def test_single_row_rejected(self, tmp_path):
        with pytest.raises(InsufficientDataError):
            render_series_chart(DemandSeries(2012, tuple(self.rows(1))), tmp_path / "c.svg")

    def test_identical_input_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        series = DemandSeries(2012, tuple(self.rows(5)))
        render_series_chart(series, a)
        render_series_chart(series, b)
        assert a.read_bytes() == b.read_bytes()

    def test_ten_year_series_has_ten_points_per_line(self, tmp_path):
        path = tmp_path / "chart.svg"
        render_series_chart(DemandSeries(2012, tuple(self.rows(10))), path)
        text = path.read_text()
        for line in text.splitlines():
            if "<polyline" in line:
                points = line.split('points="')[1].split('"')[0].split()
                assert len(points) == 10


class TestLoadSurvival:
    def test_full_schedule_loads(self, tmp_path):
        axis = AgeAxis(3)
        lines = ["region,sex,age,p"]
        for sex in ("M", "F"):
            for age in range(4):
                p = 0.0 if age == 3 else 0.9
                lines.append(f"IN,{sex},{age},{p}")
        path = write(tmp_path, "surv.csv", "\n".join(lines) + "\n")
        schedules = load_survival_csv(path, axis)
        assert schedules["IN"].prob(Sex.MALE, 0) == 0.9
        assert schedules["IN"].prob(Sex.FEMALE, 3) == 0.0

    def test_incomplete_schedule_rejected(self, tmp_path):
        path = write(tmp_path, "surv.csv", "region,sex,age,p\nIN,M,0,0.9\n")
        with pytest.raises(DataError, match="missing"):
            load_survival_csv(path, AgeAxis(3))
