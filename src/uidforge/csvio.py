"""CSV ingestion and emission plus the SVG demand chart.

All files are UTF-8, comma-delimited, with a required header row and
LF line endings. Counts are written with shortest round-trip float
formatting so that load(emit(x)) reproduces x bit-exactly; demand rows
are the exception, rounded half-to-even to whole cards at emit time.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Mapping

from .core import SEX_ROWS, AgeAxis, AgePyramid, RegionId, RegionLevel, Sex, SurvivalSchedule
from .errors import DataError, DomainError, InsufficientDataError, ParseError, UidforgeError
from .ledger import (
    DemandSeries,
    StateFlows,
    StateRates,
    check_interstate_closure,
    counts_from_rates,
)
from .projection import ProjectionSeries

POPULATION_HEADER = ["region", "sex", "age", "count"]
PROJECTION_HEADER = ["year", "region", "sex", "age", "count"]
FLOWS_RATE_HEADER = ["state", "population", "b", "d", "m", "e"]
FLOWS_COUNT_HEADER = ["state", "births", "deaths", "in", "out", "immig", "emig"]
DEMAND_HEADER = ["year", "new_cards_male", "new_cards_female", "returned_cards"]
SURVIVAL_HEADER = ["region", "sex", "age", "p"]
FERTILITY_HEADER = ["age", "rate"]
OBSERVATIONS_HEADER = ["year", "count", "exposure"]
UNKNOWN_AGE_HEADER = ["sex", "count"]

_SEX_CODES = {"M": Sex.MALE, "F": Sex.FEMALE}


def _read_rows(path) -> list[tuple[int, list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return [(i + 1, row) for i, row in enumerate(csv.reader(fh))]
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc}") from exc


def _check_header(path, rows, expected: list[str]):
    if not rows:
        raise ParseError(path, 1, f"empty file; expected header {','.join(expected)}")
    line_no, header = rows[0]
    if [h.strip() for h in header] != expected:
        raise ParseError(
            path, line_no, f"expected header {','.join(expected)}, got {','.join(header)}"
        )


def _parse_float(path, line_no, field, text) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(path, line_no, f"{field} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise DataError(path, line_no, f"{field} {text!r} is not finite")
    return value


def _parse_int(path, line_no, field, text) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(path, line_no, f"{field} {text!r} is not an integer") from None


def _parse_sex(path, line_no, text) -> Sex:
    sex = _SEX_CODES.get(text.strip())
    if sex is None:
        raise ParseError(path, line_no, f"sex must be M or F, got {text!r}")
    return sex


def load_population_csv(
    path, axis: AgeAxis | None = None, time_label: int = 0
) -> dict:
    """Load ``region,sex,age,count`` rows into one AgePyramid per region.

    Rejects negative counts, duplicate (region, sex, age) keys and ages
    beyond the axis. A header-only file is an empty dataset, not an
    error. Absent cells are simply absent; densify before projecting.
    """
    axis = axis or AgeAxis()
    rows = _read_rows(path)
    _check_header(path, rows, POPULATION_HEADER)
    per_region: dict[str, dict] = {}
    for line_no, row in rows[1:]:
        if not row:
            continue
        if len(row) != len(POPULATION_HEADER):
            raise ParseError(path, line_no, f"expected 4 fields, got {len(row)}")
        region, sex_txt, age_txt, count_txt = (f.strip() for f in row)
        if not region:
            raise ParseError(path, line_no, "region code is empty")
        sex = _parse_sex(path, line_no, sex_txt)
        age = _parse_int(path, line_no, "age", age_txt)
        if age < 0 or age > axis.max_age:
            raise ParseError(path, line_no, f"age {age} outside axis 0..{axis.max_age}")
        count = _parse_float(path, line_no, "count", count_txt)
        if count < 0:
            raise DataError(path, line_no, f"negative count {count}")
        cells = per_region.setdefault(region, {})
        if (sex, age) in cells:
            raise DataError(path, line_no, f"duplicate key ({region}, {sex.value}, {age})")
        cells[(sex, age)] = count
    return {
        code: AgePyramid(RegionId(code), time_label, axis, cells)
        for code, cells in per_region.items()
    }


def _rate_row(state: RegionId, *rates: float) -> StateFlows:
    return counts_from_rates(StateRates(state, *rates))


#: Flows header -> the constructor of one row's StateFlows.
_FLOW_RECORDS = {tuple(FLOWS_RATE_HEADER): _rate_row, tuple(FLOWS_COUNT_HEADER): StateFlows}


def load_flows_csv(path) -> list[StateFlows]:
    """Load per-state flows as event counts; the header decides whether
    the file is rate-based or count-based. A rate row becomes the counts
    it implies (:func:`counts_from_rates`). Count-based loads must
    satisfy interstate closure (total in == total out)."""
    rows = _read_rows(path)
    if not rows:
        raise ParseError(path, 1, "empty file; expected a flows header")
    header = [h.strip() for h in rows[0][1]]
    record = _FLOW_RECORDS.get(tuple(header))
    if record is None:
        raise ParseError(
            path,
            rows[0][0],
            "header matches neither the rate schema "
            f"({','.join(FLOWS_RATE_HEADER)}) nor the count schema "
            f"({','.join(FLOWS_COUNT_HEADER)})",
        )
    out = []
    seen = set()
    for line_no, row in rows[1:]:
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(path, line_no, f"expected {len(header)} fields, got {len(row)}")
        state = row[0].strip()
        if not state:
            raise ParseError(path, line_no, "state code is empty")
        if state in seen:
            raise DataError(path, line_no, f"duplicate state {state!r}")
        seen.add(state)
        values = [
            _parse_float(path, line_no, name, txt) for name, txt in zip(header[1:], row[1:])
        ]
        try:
            out.append(record(RegionId(state, RegionLevel.STATE), *values))
        except DomainError as exc:
            raise DataError(path, line_no, str(exc)) from exc
    if record is StateFlows:
        check_interstate_closure(out)
    return out


def format_count(x: float) -> str:
    return repr(float(x))


def emit_population_csv(pyramids: Mapping, path):
    """Write pyramids back to the ``region,sex,age,count`` schema with
    round-trip-exact counts, rows sorted by (region, sex, age)."""
    lines = [",".join(POPULATION_HEADER)]
    for code in sorted(pyramids):
        pyramid = pyramids[code]
        for (sex, age) in sorted(pyramid.counts, key=lambda k: (k[0].value, k[1])):
            lines.append(f"{code},{sex.value},{age},{format_count(pyramid.counts[(sex, age)])}")
    _write_text(path, "\n".join(lines) + "\n")


def emit_projection_csv(series: Iterable[tuple[str, ProjectionSeries]], path):
    """Write ``year,region,sex,age,count`` rows, one region at a time, in
    the order given and within a region by (year, sex F then M, age).

    ``series`` may be a generator, so only one region's frames need to
    exist at once. A file left incomplete by an error is removed.
    """
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParseError(path, 0, f"cannot write file: {exc}") from exc
    try:
        with fh:
            fh.write(",".join(PROJECTION_HEADER) + "\n")
            for code, projection in series:
                ages = projection.axis.ages()
                cells = [f"{sex.value},{age}," for sex in SEX_ROWS for age in ages]
                frames = projection.counts.reshape(len(projection.counts), -1).tolist()
                for k, values in enumerate(frames):
                    prefix = f"{projection.start + k},{code},"
                    fh.write("".join([f"{prefix}{cell}{v!r}\n" for cell, v in zip(cells, values)]))
    except (OSError, UidforgeError) as exc:
        Path(path).unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ParseError(path, 0, f"cannot write file: {exc}") from exc
        raise


def emit_demand_csv(series: DemandSeries, path):
    """Write the demand series with counts rounded half to even."""
    lines = [",".join(DEMAND_HEADER)]
    for row in series.rows:
        lines.append(
            f"{row.year},{round(row.new_cards_male)},"
            f"{round(row.new_cards_female)},{round(row.returned_cards)}"
        )
    _write_text(path, "\n".join(lines) + "\n")


def load_survival_csv(path, axis: AgeAxis | None = None) -> dict:
    """Load ``region,sex,age,p`` rows into one SurvivalSchedule per
    region; every age must be present for both sexes."""
    axis = axis or AgeAxis()
    rows = _read_rows(path)
    _check_header(path, rows, SURVIVAL_HEADER)
    per_region: dict[str, dict] = {}
    for line_no, row in rows[1:]:
        if not row:
            continue
        if len(row) != len(SURVIVAL_HEADER):
            raise ParseError(path, line_no, f"expected 4 fields, got {len(row)}")
        region, sex_txt, age_txt, p_txt = (f.strip() for f in row)
        sex = _parse_sex(path, line_no, sex_txt)
        age = _parse_int(path, line_no, "age", age_txt)
        p = _parse_float(path, line_no, "p", p_txt)
        cells = per_region.setdefault(region, {})
        if (sex, age) in cells:
            raise DataError(path, line_no, f"duplicate key ({region}, {sex.value}, {age})")
        cells[(sex, age)] = p
    out = {}
    for code, cells in per_region.items():
        try:
            out[code] = SurvivalSchedule(RegionId(code), axis, cells)
        except DomainError as exc:
            raise DataError(path, 0, f"region {code}: {exc}") from exc
    return out


def load_fertility_csv(path) -> dict:
    """Load ``age,rate`` rows into an age -> rate mapping."""
    rows = _read_rows(path)
    _check_header(path, rows, FERTILITY_HEADER)
    rates: dict[int, float] = {}
    for line_no, row in rows[1:]:
        if not row:
            continue
        if len(row) != 2:
            raise ParseError(path, line_no, f"expected 2 fields, got {len(row)}")
        age = _parse_int(path, line_no, "age", row[0].strip())
        if age in rates:
            raise DataError(path, line_no, f"duplicate age {age}")
        rates[age] = _parse_float(path, line_no, "rate", row[1].strip())
    return rates


def load_observations_csv(path) -> list:
    """Load ``year,count,exposure`` demand observations."""
    from .bayes import DemandObservation

    rows = _read_rows(path)
    _check_header(path, rows, OBSERVATIONS_HEADER)
    out = []
    for line_no, row in rows[1:]:
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(path, line_no, f"expected 3 fields, got {len(row)}")
        year = _parse_int(path, line_no, "year", row[0].strip())
        count = _parse_int(path, line_no, "count", row[1].strip())
        exposure = _parse_float(path, line_no, "exposure", row[2].strip())
        try:
            out.append(DemandObservation(year, count, exposure))
        except DomainError as exc:
            raise DataError(path, line_no, str(exc)) from exc
    return out


def load_unknown_age_csv(path) -> dict:
    """Load ``sex,count`` unknown-age totals."""
    rows = _read_rows(path)
    _check_header(path, rows, UNKNOWN_AGE_HEADER)
    out: dict[Sex, float] = {}
    for line_no, row in rows[1:]:
        if not row:
            continue
        if len(row) != 2:
            raise ParseError(path, line_no, f"expected 2 fields, got {len(row)}")
        sex = _parse_sex(path, line_no, row[0].strip())
        if sex in out:
            raise DataError(path, line_no, f"duplicate sex {sex.value}")
        count = _parse_float(path, line_no, "count", row[1].strip())
        if count < 0:
            raise DataError(path, line_no, f"negative count {count}")
        out[sex] = count
    return out


def _write_text(path, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(path, 0, f"cannot write file: {exc}") from exc


# ---------------------------------------------------------------- chart

_CHART_WIDTH = 720
_CHART_HEIGHT = 440
_MARGIN_LEFT = 80
_MARGIN_RIGHT = 30
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 60


def render_series_chart(series: DemandSeries, path):
    """Write a standalone SVG line chart of annual male and female new
    cards. Output bytes are a pure function of the series."""
    if len(series.rows) < 2:
        raise InsufficientDataError(
            f"chart needs at least 2 rows, series has {len(series.rows)}"
        )
    years = [row.year for row in series.rows]
    male = [row.new_cards_male for row in series.rows]
    female = [row.new_cards_female for row in series.rows]

    y_max = max(male + female)
    y_min = 0.0
    y_span = y_max - y_min if y_max > y_min else 1.0
    x_min, x_max = years[0], years[-1]
    x_span = x_max - x_min if x_max > x_min else 1

    plot_w = _CHART_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _CHART_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(year):
        return _MARGIN_LEFT + (year - x_min) / x_span * plot_w

    def sy(value):
        return _MARGIN_TOP + (1.0 - (value - y_min) / y_span) * plot_h

    def points(values):
        return " ".join(f"{sx(y):.2f},{sy(v):.2f}" for y, v in zip(years, values))

    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + plot_h
    x1, y1 = _MARGIN_LEFT + plot_w, _MARGIN_TOP
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CHART_WIDTH}" '
        f'height="{_CHART_HEIGHT}" viewBox="0 0 {_CHART_WIDTH} {_CHART_HEIGHT}">',
        f'<rect width="{_CHART_WIDTH}" height="{_CHART_HEIGHT}" fill="white"/>',
        f'<text x="{_CHART_WIDTH / 2:.2f}" y="24" text-anchor="middle" '
        'font-family="sans-serif" font-size="16">Annual number of cards newly required</text>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2:.2f}" y="{_CHART_HEIGHT - 16}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">year</text>',
        f'<text x="20" y="{(y0 + y1) / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" transform="rotate(-90 20 {(y0 + y1) / 2:.2f})">'
        "new cards</text>",
        f'<text x="{x0}" y="{y0 + 18}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{x_min}</text>',
        f'<text x="{x1}" y="{y0 + 18}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{x_max}</text>',
        f'<text x="{x0 - 6}" y="{y0 + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{y_min:.0f}</text>',
        f'<text x="{x0 - 6}" y="{y1 + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{y_max:.0f}</text>',
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="2" points="{points(male)}"/>',
        f'<polyline fill="none" stroke="#d62728" stroke-width="2" points="{points(female)}"/>',
        f'<text x="{x1 - 120}" y="{y1 + 16}" font-family="sans-serif" '
        'font-size="12" fill="#1f77b4">male</text>',
        f'<text x="{x1 - 120}" y="{y1 + 32}" font-family="sans-serif" '
        'font-size="12" fill="#d62728">female</text>',
        "</svg>",
    ]
    _write_text(path, "\n".join(parts) + "\n")
