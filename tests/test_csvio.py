import contextlib
import multiprocessing
import signal
import string
import threading
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uidforge import (
    AgeAxis,
    AgePyramid,
    ConsistencyError,
    DataError,
    DemandSeries,
    DomainError,
    InsufficientDataError,
    ParseError,
    ProjectionSeries,
    Sex,
    StateFlows,
)
from uidforge import csvio
from uidforge.csvio import (
    _column_keys,
    _row_keys,
    emit_demand_csv,
    emit_population_csv,
    emit_projection_csv,
    load_fertility_csv,
    load_flows_csv,
    load_observations_csv,
    load_population_csv,
    load_survival_csv,
    load_unknown_age_csv,
    render_series_chart,
    write_file,
)
from conftest import dense_pyramid


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


#: (loader, header, valid data rows) for every loader of the package
READER_CASES = {
    "population": (load_population_csv, "region,sex,age,count", ["IN,F,20,1000", "IN,M,20,800"]),
    "survival": (
        partial(load_survival_csv, axis=AgeAxis(1)),
        "region,sex,age,p",
        ["IN,M,0,0.9", "IN,M,1,0", "IN,F,0,0.95", "IN,F,1,0"],
    ),
    "fertility": (load_fertility_csv, "age,rate", ["20,0.1", "21,0.09"]),
    "flows-rates": (load_flows_csv, "state,population,b,d,m,e", ["A,1e6,0.02,0.008,0,0"]),
    "flows-counts": (
        load_flows_csv,
        "state,births,deaths,in,out,immig,emig",
        ["A,10,5,3,7,1,0", "B,20,2,7,3,0,2"],
    ),
    "observations": (load_observations_csv, "year,count,exposure", ["2012,4,1.0", "2013,6,1.5"]),
    "unknown-age": (load_unknown_age_csv, "sex,count", ["F,170", "M,30"]),
}


@pytest.mark.parametrize("load, header, rows", READER_CASES.values(), ids=READER_CASES)
class TestReader:
    def test_blank_lines_skipped_and_spaced_header_accepted(self, tmp_path, load, header, rows):
        plain = write(tmp_path, "plain.csv", "\n".join([header, *rows]) + "\n")
        spaced_header = " , ".join(f" {name}" for name in header.split(","))
        spaced = write(tmp_path, "spaced.csv", "\n\n".join([spaced_header, *rows]) + "\n\n")
        assert load(spaced) == load(plain)

    def test_short_row_raises_with_its_line(self, tmp_path, load, header, rows):
        # header, the rows, a blank line, then the short row
        short = rows[0].rsplit(",", 1)[0]
        path = write(tmp_path, "short.csv", "\n".join([header, *rows, "", short]) + "\n")
        with pytest.raises(ParseError, match="fields") as err:
            load(path)
        assert err.value.line_no == len(rows) + 3

    def test_row_after_a_field_spanning_lines_raises_at_its_line(
        self, tmp_path, load, header, rows
    ):
        # the first row's quoted last field spans lines 2 and 3
        first, value = rows[0].rsplit(",", 1)
        spanning = f'{first},"\n{value}"'
        path = write(tmp_path, "span.csv", "\n".join([header, spanning, first]) + "\n")
        with pytest.raises(ParseError, match=r"span\.csv:4: expected") as err:
            load(path)
        assert err.value.line_no == 4

    @pytest.mark.parametrize(
        "field, reason",
        [
            ("R\xe9gion", "'utf-8' codec can't decode byte 0xe9 in position"),
            ("x" * 200_000, "field larger than field limit (131072)"),
        ],
        ids=["undecodable", "oversized"],
    )
    def test_read_error_after_the_header_is_a_parse_error(
        self, tmp_path, load, header, rows, field, reason
    ):
        path = tmp_path / "bad.csv"
        text = "\n".join([header, *rows, rows[0].replace(rows[0].split(",")[0], field, 1)])
        path.write_bytes(text.encode("latin-1") + b"\n")
        with pytest.raises(ParseError) as err:
            load(path)
        assert err.value.line_no == 0
        assert str(err.value).startswith(f"{path}:0: cannot read file: {reason}")

    def test_negative_number_raises_with_its_line(self, tmp_path, load, header, rows):
        # the last field of every schema is a count, a probability, a rate or an exposure
        # a row whose quoted field spans lines is named by its first line
        for value in ("-1", '"\n-1"'):
            negative = rows[0].rsplit(",", 1)[0] + "," + value
            path = write(tmp_path, "values.csv", "\n".join([header, negative]) + "\n")
            with pytest.raises(DataError, match=r":2: negative ") as err:
                load(path)
            assert err.value.line_no == 2

    @pytest.mark.parametrize("text", ["1_0", "\u0661\u0662"], ids=["underscore", "arabic-indic"])
    def test_number_with_an_underscore_or_other_digits_raises_at_its_line(
        self, tmp_path, load, header, rows, text
    ):
        # float() reads 1_0 as 10.0 and the Arabic-Indic digits 12 as 12.0
        bad = rows[0].rsplit(",", 1)[0] + "," + text
        path = write(tmp_path, "digits.csv", "\n".join([header, *rows[1:], bad]) + "\n")
        with pytest.raises(ParseError) as err:
            load(path)
        line_no, field = len(rows) + 1, header.rsplit(",", 1)[1]
        assert str(err.value) == f"{path}:{line_no}: {field} {text!r} is not a number"


#: name -> (loader, header, a data row with ``{}`` for an integer field, the field)
INTEGER_FIELDS = {
    "population-age": (load_population_csv, "region,sex,age,count", "IN,F,{},1", "age"),
    "fertility-age": (load_fertility_csv, "age,rate", "{},0.1", "age"),
    "observations-year": (load_observations_csv, "year,count,exposure", "{},4,1.0", "year"),
    "observations-count": (load_observations_csv, "year,count,exposure", "2011,{},1.0", "count"),
}


@pytest.mark.parametrize("text", ["2_0", "\u0663"], ids=["underscore", "arabic-indic"])
@pytest.mark.parametrize("load, header, row, field", INTEGER_FIELDS.values(), ids=INTEGER_FIELDS)
def test_integer_with_an_underscore_or_other_digits_raises_at_its_line(
    tmp_path, load, header, row, field, text
):
    # int() reads 2_0 as 20 and the Arabic-Indic digit 3 as 3
    path = write(tmp_path, "digits.csv", f"{header}\n{row.format(text)}\n")
    with pytest.raises(ParseError) as err:
        load(path)
    assert str(err.value) == f"{path}:2: {field} {text!r} is not an integer"


class TestLoadPopulation:
    def test_header_only_is_empty_dataset(self, tmp_path):
        path = write(tmp_path, "pop.csv", "region,sex,age,count\n")
        assert load_population_csv(path) == {}

    def test_single_cell(self, tmp_path):
        path = write(tmp_path, "pop.csv", "region,sex,age,count\nIN,F,20,1000\n")
        pyramids = load_population_csv(path)
        assert list(pyramids) == ["IN"]
        assert pyramids["IN"].count(Sex.FEMALE, 20) == 1000.0
        assert pyramids["IN"].present[Sex.FEMALE.row, 20]
        assert not pyramids["IN"].present[Sex.MALE.row, 20]

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

    def test_undecodable_file_is_parse_error(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_bytes(b"region,sex,age,count\nIN,F,20,1\nR\xe9gion,F,21,1\n")
        with pytest.raises(ParseError, match="cannot read file"):
            load_population_csv(path)

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

    def test_cell_beyond_the_axis_is_not_written(self, tmp_path, region):
        with pytest.raises(DomainError, match=r"cell \(M, 7\) lies beyond the axis 0\.\.3"):
            emit_population_csv(
                {"IN": AgePyramid(region, 2011, AgeAxis(3), {(Sex.MALE, 7): 1.0})},
                tmp_path / "out.csv",
            )
        assert not (tmp_path / "out.csv").exists()


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

    def test_rate_schema_loads_as_counts_bit_exact(self, tmp_path):
        # in/out totals differ (1000 vs 1275): closure is checked on count files only
        path = write(
            tmp_path,
            "flows.csv",
            "state,population,b,d,m,e\nA,1e6,0.021,0.0079,0.001,0.0012\n"
            "B,250000,0.018,0.009,0.0,0.0003\n",
        )
        flows = load_flows_csv(path)
        assert [f.state for f in flows] == ["A", "B"]
        for loaded, (pop, b, d, m, e) in zip(
            flows, [(1e6, 0.021, 0.0079, 0.001, 0.0012), (250000.0, 0.018, 0.009, 0.0, 0.0003)]
        ):
            assert loaded.births == b * pop
            assert loaded.deaths == d * pop
            assert loaded.interstate_in == m * pop
            assert loaded.interstate_out == e * pop
            assert loaded.immigration == 0.0
            assert loaded.emigration == 0.0

    def test_count_schema_loads_exact_values(self, tmp_path):
        path = write(
            tmp_path,
            "flows.csv",
            "state,births,deaths,in,out,immig,emig\nA,10,5,3,7,1,0\nB,20.5,2,7,3,0,2\n",
        )
        assert load_flows_csv(path) == [
            StateFlows("A", 10.0, 5.0, 3.0, 7.0, 1.0, 0.0),
            StateFlows("B", 20.5, 2.0, 7.0, 3.0, 0.0, 2.0),
        ]

    def test_rate_row_whose_counts_overflow_is_data_error(self, tmp_path):
        path = write(tmp_path, "flows.csv", "state,population,b,d,m,e\nA,1e300,1e10,0,0,0\n")
        with pytest.raises(DataError, match="StateFlows.births must be finite") as err:
            load_flows_csv(path)
        assert err.value.line_no == 2

    def test_unknown_header_rejected(self, tmp_path):
        path = write(tmp_path, "flows.csv", "state,x,y\nA,1,2\n")
        with pytest.raises(ParseError, match="neither"):
            load_flows_csv(path)

    @pytest.mark.parametrize("schema", ["flows-rates", "flows-counts"])
    def test_empty_state_rejected_at_its_line(self, tmp_path, schema):
        _, header, rows = READER_CASES[schema]
        empty = "," + rows[0].split(",", 1)[1]
        path = write(tmp_path, "flows.csv", "\n".join([header, *rows, empty]) + "\n")
        with pytest.raises(DataError) as err:
            load_flows_csv(path)
        assert str(err.value) == f"{path}:{len(rows) + 2}: region code must be non-empty"


def demand_series(rows):
    """A DemandSeries over ``(year, male, female, returned)`` rows."""
    years, male, female, returned = zip(*rows) if rows else ((),) * 4
    return DemandSeries(years, male, female, returned)


class TestEmitDemand:
    def test_empty_series_writes_header_only(self, tmp_path):
        path = tmp_path / "demand.csv"
        emit_demand_csv(demand_series([]), path)
        assert path.read_bytes() == b"year,new_cards_male,new_cards_female,returned_cards\n"

    def test_rounding_is_half_to_even(self, tmp_path):
        rows = [(2012, 2.5, 3.5, 0.5), (2013, 176.2, 272.9, 97.0)]
        path = tmp_path / "demand.csv"
        emit_demand_csv(demand_series(rows), path)
        lines = path.read_text().splitlines()
        assert lines[1] == "2012,2,4,0"
        assert lines[2] == "2013,176,273,97"

    def test_reemission_is_byte_identical(self, tmp_path):
        rows = [(2012, 10.2, 11.7, 3.0), (2013, 9.9, 12.1, 4.0)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_demand_csv(demand_series(rows), a)
        emit_demand_csv(demand_series(rows), b)
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_is_io_error(self, tmp_path):
        with pytest.raises(ParseError, match="cannot write"):
            emit_demand_csv(demand_series([]), tmp_path / "missing_dir" / "demand.csv")


class TestRenderChart:
    def series(self, n):
        return demand_series([(2012 + k, 100.0 + k, 90.0 + 2 * k, 5.0) for k in range(n)])

    def test_two_rows_give_two_polylines(self, tmp_path):
        path = tmp_path / "chart.svg"
        render_series_chart(self.series(2), path)
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert text.startswith("<?xml")
        assert "year</text>" in text and "new cards</text>" in text

    def test_single_row_rejected(self, tmp_path):
        with pytest.raises(InsufficientDataError):
            render_series_chart(self.series(1), tmp_path / "c.svg")

    def test_identical_input_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        series = self.series(5)
        render_series_chart(series, a)
        render_series_chart(series, b)
        assert a.read_bytes() == b.read_bytes()

    def test_ten_year_series_has_ten_points_per_line(self, tmp_path):
        path = tmp_path / "chart.svg"
        render_series_chart(self.series(10), path)
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
        assert schedules["IN"].array[Sex.MALE.row, 0] == 0.9
        assert schedules["IN"].array[Sex.FEMALE.row, 3] == 0.0

    def test_incomplete_schedule_rejected(self, tmp_path):
        path = write(tmp_path, "surv.csv", "region,sex,age,p\nIN,M,0,0.9\n")
        with pytest.raises(DataError, match="missing"):
            load_survival_csv(path, AgeAxis(3))

    @pytest.mark.parametrize(
        "row, error, words",
        [
            (",M,0,0.9", ParseError, "region code is empty"),
            ("IN,M,0,-0.1", DataError, "negative p"),
            ("IN,M,4,0.9", ParseError, "age 4 outside axis 0..3"),
        ],
        ids=["empty-region", "negative-p", "age-beyond-axis"],
    )
    def test_bad_cell_raises_at_its_line(self, tmp_path, row, error, words):
        lines = ["region,sex,age,p", row]
        lines += [f"IN,{sex},{age},{0.0 if age == 3 else 0.9}" for sex in "MF" for age in range(4)]
        path = write(tmp_path, "surv.csv", "\n".join(lines) + "\n")
        with pytest.raises(error, match=words) as err:
            load_survival_csv(path, AgeAxis(3))
        assert err.value.line_no == 2


def region_file_lines(kind, n_regions=25):
    """Header and rows of a valid ``kind`` file on AgeAxis(100) with more
    rows than one read block: regions R00.., F then M, ages 0..100."""
    lines = ["region,sex,age,count" if kind == "population" else "region,sex,age,p"]
    for r in range(n_regions):
        for sex in "FM":
            for age in range(101):
                if kind == "population":
                    value = f"{(r * 37 + age) % 97 + 0.5}"
                else:
                    value = "0.0" if age == 100 else "0.9"
                lines.append(f"R{r:02d},{sex},{age},{value}")
    return lines


def edit_field(line, **fields):
    region, sex, age, value = line.split(",")
    row = {"region": region, "sex": sex, "age": age, "value": value, **fields}
    return ",".join(row[k] for k in ("region", "sex", "age", "value"))


LOADERS = {"population": load_population_csv, "survival": load_survival_csv}

#: name -> (edits as line number -> new text or field changes, error class,
#: line number, message); {field} is the value column's name
BLOCK_CASES = {
    "bad value after the first block": (
        {4600: {"value": "-1"}}, DataError, 4600, "negative {field} -1.0"
    ),
    "two faults in one row": (
        {4600: {"sex": "X", "age": "500"}}, ParseError, 4600, "sex must be M or F, got 'X'"
    ),
    "duplicate of a key in an earlier block": (
        {4600: {"region": "R00", "sex": "F", "age": "1"}},
        DataError, 4600, "duplicate key (R00, F, 1)",
    ),
    "blank line before the bad row": (
        {4550: "", 4600: {"value": "nan"}}, DataError, 4600, "{field} 'nan' is not finite"
    ),
    "blank line after the bad row": (
        {4600: {"age": "2.5"}, 4650: ""}, ParseError, 4600, "age '2.5' is not an integer"
    ),
    "underscore in an age": (
        {4600: {"age": "1_5"}}, ParseError, 4600, "age '1_5' is not an integer"
    ),
    "other digits in an age": (
        {4600: {"age": "\u0663"}}, ParseError, 4600, "age '\u0663' is not an integer"
    ),
    "underscore in a value": (
        {4600: {"value": "1_000"}}, ParseError, 4600, "{field} '1_000' is not a number"
    ),
    "other digits in a value": (
        {4600: {"value": "\u0661\u0662"}},
        ParseError, 4600, "{field} '\u0661\u0662' is not a number",
    ),
}


@pytest.mark.parametrize("kind", LOADERS)
class TestRegionCellsAcrossBlocks:
    @pytest.mark.parametrize("edits, error, line_no, words", BLOCK_CASES.values(), ids=BLOCK_CASES)
    def test_first_bad_line_raises_its_error(self, tmp_path, kind, edits, error, line_no, words):
        lines = region_file_lines(kind)
        # the first block holds the data rows at lines 2..4097; every edit is in the second
        assert all(4097 < number < len(lines) for number in edits)
        for number, edit in edits.items():
            if isinstance(edit, dict):
                edit = edit_field(lines[number - 1], **edit)
            lines[number - 1] = edit
        path = write(tmp_path, f"{kind}.csv", "\n".join(lines) + "\n")
        with pytest.raises(error) as err:
            LOADERS[kind](path, AgeAxis(100))
        field = "count" if kind == "population" else "p"
        assert type(err.value) is error
        assert err.value.line_no == line_no
        assert str(err.value) == f"{path}:{line_no}: {words.format(field=field)}"

    def test_bad_row_before_unreadable_bytes_raises_first(self, tmp_path, kind):
        lines = region_file_lines(kind)
        lines[9] = edit_field(lines[9], value="x")
        path = tmp_path / f"{kind}.csv"
        text = "\n".join(lines[:4000]) + "\nR\xe9gion,F,0,1\n" + "\n".join(lines[4000:]) + "\n"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ParseError) as err:
            LOADERS[kind](path, AgeAxis(100))
        assert err.value.line_no == 10 and "is not a number" in str(err.value)

    def test_blank_lines_in_every_block_load_like_none(self, tmp_path, kind):
        lines = region_file_lines(kind)
        plain = write(tmp_path, "plain.csv", "\n".join(lines) + "\n")
        gappy = lines[:3] + [""] + lines[3:4500] + ["", ""] + lines[4500:]
        spaced = write(tmp_path, "spaced.csv", "\n".join(gappy) + "\n\n")
        assert LOADERS[kind](spaced, AgeAxis(100)) == LOADERS[kind](plain, AgeAxis(100))

    def test_column_reader_matches_row_reader_or_turns_the_file_down(self, tmp_path, kind):
        header, *rows = region_file_lines(kind)
        rows = rows[202:4500] + rows[:202] + rows[4500:]  # R00 comes after block one
        plain = write(tmp_path, "plain.csv", "\n".join([header, *rows]) + "\n")
        axis, header = AgeAxis(100), header.split(",")
        slots, keys, values = _column_keys(plain, header, axis)
        row_slots, row_keys, row_values = _row_keys(plain, header, axis)
        assert list(slots.items()) == list(row_slots.items())
        assert list(slots) == list(dict.fromkeys(row.split(",")[0] for row in rows))
        assert np.array_equal(keys, row_keys) and values.tobytes() == row_values.tobytes()
        padded = write(tmp_path, "padded.csv", "\n".join([",".join(header), *rows[:9], "R00 ,F,0,1"]))
        with pytest.raises(ValueError):
            _column_keys(padded, header, axis)
        # a code that the writers, which print codes unquoted, could not write back
        for n, code in enumerate(['"A,B"', '"A""B"', '"A\rB"', '"A\nB"']):
            unwritable = write(tmp_path, f"code{n}.csv", "\n".join([",".join(header), *rows[:9], f"{code},F,0,1"]))
            with pytest.raises(ValueError):
                _column_keys(unwritable, header, axis)
            with pytest.raises(ParseError, match="comma, quote or line break") as err:
                _row_keys(unwritable, header, axis)
            assert err.value.line_no == 11


def projections(n_regions, horizon, axis=AgeAxis(100)):
    rng = np.random.default_rng(7)
    for r in range(n_regions):
        counts = rng.random((horizon + 1, 2, axis.n_ages)) * 1e5
        yield ProjectionSeries(f"R{r}", 2011, axis, counts)


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after ``seconds``, so that a
    deadlock fails the test instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestWriteFile:
    @pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
    def test_any_exception_removes_the_partial_file(self, tmp_path, error):
        def chunks():
            yield "year,region,sex,age,count\n"
            raise error("after the first chunk")

        path = tmp_path / "out.csv"
        with pytest.raises(error, match="after the first chunk"):
            write_file(path, chunks())
        assert not path.exists()


@pytest.mark.parametrize(
    "code", ["", "A,B", 'A"B', "A\nB", 5], ids=["empty", "comma", "quote", "newline", "not-a-str"]
)
class TestWritersRejectCodesTheReadersReject:
    def assert_rejected(self, err, code, path):
        assert str(err.value) == (
            f"region code {code!r} cannot be written: it must be a non-empty str without "
            "a comma, quote or line break"
        )
        assert not path.exists()

    def test_population_writer(self, tmp_path, code):
        pyramid = dense_pyramid("IN", 2011, AgeAxis(3), female={1: 1.0})
        path = tmp_path / "out.csv"
        # beside a good code too: a key of another type is named, not compared
        for pyramids in ({code: pyramid}, {"IN": pyramid, code: pyramid}):
            with pytest.raises(DomainError) as err:
                emit_population_csv(pyramids, path)
            self.assert_rejected(err, code, path)

    def test_projection_writer(self, tmp_path, code):
        (good,) = projections(1, 2)
        path = tmp_path / "out.csv"
        with pytest.raises(DomainError) as err:
            emit_projection_csv([good, ProjectionSeries(code, 2011, good.axis, good.counts)], path)
        self.assert_rejected(err, code, path)


class TestProjectionWriter:
    def test_regions_larger_than_a_pipe_buffer_write_the_same_bytes(self, tmp_path, monkeypatch):
        # 201 frames: each region is 0.3 MB as floats and about 1 MB as text
        written = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(csvio, "_usable_cpus", lambda: workers)
            with time_limit(60):
                emit_projection_csv(projections(5, 200), tmp_path / f"w{workers}.csv")
            written.append((tmp_path / f"w{workers}.csv").read_bytes())
        assert written[1] == written[0] and written[2] == written[0]

    def test_other_threads_keep_the_formatting_in_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(csvio, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(csvio, "_forked_texts", None)  # calling it would raise
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            emit_projection_csv(projections(3, 2), tmp_path / "threads.csv")
        finally:
            release.set()
            waiter.join(10)
        assert not waiter.is_alive()
        monkeypatch.setattr(csvio, "_usable_cpus", lambda: 1)
        emit_projection_csv(projections(3, 2), tmp_path / "one.csv")
        assert (tmp_path / "threads.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()

    def test_failed_write_reaps_the_workers_at_once(self, tmp_path, monkeypatch):
        if not Path("/dev/full").exists():
            pytest.skip("needs /dev/full")
        (tmp_path / "full.csv").symlink_to("/dev/full")
        monkeypatch.setattr(csvio, "_usable_cpus", lambda: 2)
        with pytest.raises(ParseError, match="No space") as err:
            emit_projection_csv(projections(9, 20), tmp_path / "full.csv")
        assert err.traceback  # the traceback, and the frames it holds, are still alive
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "full.csv").is_symlink()


_REGION_CODE = st.text(string.ascii_letters + string.digits + "_-.", min_size=1, max_size=6)
_COUNT = st.one_of(
    st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308, 1e300]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)


@st.composite
def sparse_pyramids(draw):
    axis = AgeAxis(draw(st.integers(1, 12)))
    codes = draw(st.lists(_REGION_CODE, min_size=1, max_size=5, unique=True))
    pyramids = {}
    for code in codes:
        keys = [(sex, age) for sex in Sex for age in axis.ages()]
        present = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
        cells = {key: draw(_COUNT) for key, keep in zip(keys, present) if keep}
        pyramids[code] = AgePyramid(code, 0, axis, cells)
    return axis, pyramids


@given(sparse_pyramids())
@settings(max_examples=150, deadline=None)
def test_population_round_trip_keeps_array_and_mask(tmp_path_factory, drawn):
    axis, pyramids = drawn
    root = tmp_path_factory.mktemp("roundtrip")
    emit_population_csv(pyramids, root / "a.csv")
    back = load_population_csv(root / "a.csv", axis)
    assert sorted(back) == sorted(code for code, p in pyramids.items() if p.present.any())
    for code, pyramid in back.items():
        assert np.array_equal(pyramid.present, pyramids[code].present)
        assert pyramid.array.tobytes() == pyramids[code].array.tobytes()
    emit_population_csv(back, root / "b.csv")
    assert (root / "b.csv").read_bytes() == (root / "a.csv").read_bytes()
