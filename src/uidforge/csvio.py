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

import numpy as np

from .bayes import ChainSummary, DemandObservation, PosteriorChain
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
POSTERIOR_HEADER = "mean,variance,ci_low,ci_high,acceptance_rate,n_samples,burn_in,seed".split(",")

_SEX_CODES = {"M": Sex.MALE, "F": Sex.FEMALE}


def _table(path, *headers: list[str]):
    """Open ``path`` and match its stripped header row against the
    accepted ``headers``. Return the matching header and a lazy iterator
    of ``(line_no, stripped fields)`` over the data rows that skips blank
    lines and rejects a row whose field count differs from the header's.
    """
    rows = _header_then_rows(path, headers)
    return next(rows), rows


def _header_then_rows(path, headers):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = [h.strip() for h in next(reader, [])]
            if header not in headers:
                verb = "matches neither" if len(headers) > 1 else "does not match"
                expected = " nor ".join(",".join(h) for h in headers)
                raise ParseError(path, 1, f"header {','.join(header)!r} {verb} {expected}")
            yield header
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseError(
                        path, line_no, f"expected {len(header)} fields, got {len(row)}"
                    )
                yield line_no, [f.strip() for f in row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(path, 0, f"cannot read file: {exc}") from exc


def _parse_float(path, line_no, field, text) -> float:
    """``text`` as a finite, non-negative float: every number the input
    schemas hold is a count, a probability, a rate or an exposure."""
    try:
        value = float(text)
    except ValueError:
        raise ParseError(path, line_no, f"{field} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise DataError(path, line_no, f"{field} {text!r} is not finite")
    if value < 0:
        raise DataError(path, line_no, f"negative {field} {value}")
    return value


def _parse_int(path, line_no, field, text) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(path, line_no, f"{field} {text!r} is not an integer") from None


def _parse_sex(path, line_no, text) -> Sex:
    sex = _SEX_CODES.get(text)
    if sex is None:
        raise ParseError(path, line_no, f"sex must be M or F, got {text!r}")
    return sex


def _region_cells(path, header: list[str], axis: AgeAxis) -> dict:
    """Read a ``region,sex,age,<value>`` file into region -> {(sex, age):
    value}, rejecting at its line an empty region, a bad sex, an age off
    ``axis``, a negative or non-finite value and a duplicate key."""
    _, rows = _table(path, header)
    per_region: dict[str, dict] = {}
    for line_no, (region, sex_txt, age_txt, value_txt) in rows:
        if not region:
            raise ParseError(path, line_no, "region code is empty")
        sex = _parse_sex(path, line_no, sex_txt)
        age = _parse_int(path, line_no, "age", age_txt)
        if not axis.contains(age):
            raise ParseError(path, line_no, f"age {age} outside axis 0..{axis.max_age}")
        cells = per_region.setdefault(region, {})
        if (sex, age) in cells:
            raise DataError(path, line_no, f"duplicate key ({region}, {sex.value}, {age})")
        cells[(sex, age)] = _parse_float(path, line_no, header[-1], value_txt)
    return per_region


def load_population_csv(
    path, axis: AgeAxis | None = None, time_label: int = 0
) -> dict:
    """Load ``region,sex,age,count`` rows into one AgePyramid per region.

    Rejects negative counts, duplicate (region, sex, age) keys and ages
    beyond the axis. A header-only file is an empty dataset, not an
    error. Absent cells are simply absent; densify before projecting.
    """
    axis = axis or AgeAxis()
    return {
        code: AgePyramid(RegionId(code), time_label, axis, cells)
        for code, cells in _region_cells(path, POPULATION_HEADER, axis).items()
    }


def load_survival_csv(path, axis: AgeAxis | None = None) -> dict:
    """Load ``region,sex,age,p`` rows into one SurvivalSchedule per
    region; every age must be present for both sexes."""
    axis = axis or AgeAxis()
    out = {}
    for code, cells in _region_cells(path, SURVIVAL_HEADER, axis).items():
        try:
            out[code] = SurvivalSchedule(RegionId(code), axis, cells)
        except DomainError as exc:
            raise DataError(path, 0, f"region {code}: {exc}") from exc
    return out


def _rate_row(state: RegionId, *rates: float) -> StateFlows:
    return counts_from_rates(StateRates(state, *rates))


def load_flows_csv(path) -> list[StateFlows]:
    """Load per-state flows as event counts; the header decides whether
    the file is rate-based or count-based. A rate row becomes the counts
    it implies (:func:`counts_from_rates`). Count-based loads must
    satisfy interstate closure (total in == total out)."""
    header, rows = _table(path, FLOWS_RATE_HEADER, FLOWS_COUNT_HEADER)
    record = StateFlows if header == FLOWS_COUNT_HEADER else _rate_row
    out = []
    seen = set()
    for line_no, (state, *fields) in rows:
        if state in seen:
            raise DataError(path, line_no, f"duplicate state {state!r}")
        seen.add(state)
        values = [_parse_float(path, line_no, name, txt) for name, txt in zip(header[1:], fields)]
        try:
            out.append(record(RegionId(state, RegionLevel.STATE), *values))
        except DomainError as exc:
            raise DataError(path, line_no, str(exc)) from exc
    if record is StateFlows:
        check_interstate_closure(out)
    return out


def load_fertility_csv(path) -> dict:
    """Load ``age,rate`` rows into an age -> rate mapping."""
    _, rows = _table(path, FERTILITY_HEADER)
    rates: dict[int, float] = {}
    for line_no, (age_txt, rate_txt) in rows:
        age = _parse_int(path, line_no, "age", age_txt)
        if age in rates:
            raise DataError(path, line_no, f"duplicate age {age}")
        rates[age] = _parse_float(path, line_no, "rate", rate_txt)
    return rates


def load_observations_csv(path) -> list:
    """Load ``year,count,exposure`` demand observations."""
    _, rows = _table(path, OBSERVATIONS_HEADER)
    out = []
    for line_no, (year_txt, count_txt, exposure_txt) in rows:
        year = _parse_int(path, line_no, "year", year_txt)
        count = _parse_int(path, line_no, "count", count_txt)
        exposure = _parse_float(path, line_no, "exposure", exposure_txt)
        try:
            out.append(DemandObservation(year, count, exposure))
        except DomainError as exc:
            raise DataError(path, line_no, str(exc)) from exc
    return out


def load_unknown_age_csv(path) -> dict:
    """Load ``sex,count`` unknown-age totals."""
    _, rows = _table(path, UNKNOWN_AGE_HEADER)
    out: dict[Sex, float] = {}
    for line_no, (sex_txt, count_txt) in rows:
        sex = _parse_sex(path, line_no, sex_txt)
        if sex in out:
            raise DataError(path, line_no, f"duplicate sex {sex.value}")
        out[sex] = _parse_float(path, line_no, "count", count_txt)
    return out


def write_file(path, chunks: Iterable[str]):
    """Write the text ``chunks`` to ``path`` in order. ``chunks`` may be
    a generator; a file left incomplete by an error is removed."""
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
        try:
            with fh:
                fh.writelines(chunks)
        except (OSError, UidforgeError):
            Path(path).unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise ParseError(path, 0, f"cannot write file: {exc}") from exc


def format_count(x: float) -> str:
    return repr(float(x))


def emit_population_csv(pyramids: Mapping, path):
    """Write pyramids back to the ``region,sex,age,count`` schema with
    round-trip-exact counts, rows sorted by (region, sex, age). A region
    with a non-finite count is a DomainError."""
    lines = [",".join(POPULATION_HEADER) + "\n"]
    for code in sorted(pyramids):
        counts = pyramids[code].counts
        if not all(map(math.isfinite, counts.values())):
            raise DomainError(f"region {code}: a count is not finite")
        for (sex, age) in sorted(counts, key=lambda k: (k[0].value, k[1])):
            lines.append(f"{code},{sex.value},{age},{format_count(counts[(sex, age)])}\n")
    write_file(path, lines)


def emit_projection_csv(series: Iterable[tuple[str, ProjectionSeries]], path):
    """Write ``year,region,sex,age,count`` rows, one region at a time, in
    the order given and within a region by (year, sex F then M, age).

    ``series`` may be a generator, so only one region's frames need to
    exist at once. A region whose projection is not finite is a
    DomainError naming its first such year, and leaves no file.
    """

    def chunks():
        yield ",".join(PROJECTION_HEADER) + "\n"
        for code, projection in series:
            frames = projection.counts.reshape(len(projection.counts), -1)
            bad = ~np.isfinite(frames).all(axis=1)
            if bad.any():
                year = projection.start + int(bad.argmax())
                raise DomainError(f"projection of region {code} is not finite in year {year}")
            cells = [f"{sex.value},{age}," for sex in SEX_ROWS for age in projection.axis.ages()]
            for k, values in enumerate(frames.tolist()):
                prefix = f"{projection.start + k},{code},"
                yield "".join([f"{prefix}{cell}{v!r}\n" for cell, v in zip(cells, values)])

    write_file(path, chunks())


def emit_demand_csv(series: DemandSeries, path):
    """Write the demand series with counts rounded half to even."""
    lines = [",".join(DEMAND_HEADER) + "\n"]
    for row in series.rows:
        lines.append(
            f"{row.year},{round(row.new_cards_male)},"
            f"{round(row.new_cards_female)},{round(row.returned_cards)}\n"
        )
    write_file(path, lines)


def emit_posterior_csv(summary: ChainSummary, chain: PosteriorChain, path):
    """Write the one-row summary of ``chain`` with shortest round-trip floats."""
    floats = (summary.mean, summary.variance, *summary.interval, chain.acceptance_rate)
    if not all(map(math.isfinite, floats)):
        raise DomainError(f"posterior summary is not finite: {floats}")
    row = [*map(repr, floats), str(chain.samples.size), str(chain.burn_in), str(chain.seed)]
    write_file(path, [",".join(POSTERIOR_HEADER) + "\n", ",".join(row) + "\n"])


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
    write_file(path, ["\n".join(parts) + "\n"])
