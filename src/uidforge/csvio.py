"""CSV ingestion and emission plus the SVG demand chart.

All files are UTF-8, comma-delimited, with a required header row and
LF line endings. Counts are written with shortest round-trip float
formatting so that load(emit(x)) reproduces x bit-exactly; demand rows
are the exception, rounded half-to-even to whole cards at emit time.
Every input file is opened by one context manager, :func:`_table`, which
checks the header and turns any read error inside it into a ParseError
at line 0; data rows come from :func:`_rows`, or, in the column reader,
straight from the csv reader. Numbers must be ASCII without ``_``.
Population and survival files are read in blocks of rows straight into
one ``(regions, 2, n_ages)`` array and presence mask per file; each
region's pyramid or schedule is a view of it, and the population writer
formats from the array and mask. ``projection.csv`` rows are formatted
by forked workers, one per usable CPU, and written in region order.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import math
import os
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .bayes import ChainSummary, DemandObservation, PosteriorChain
from .core import (
    SEX_ROWS, AgeAxis, AgePyramid, Cells, RegionId, RegionLevel, Sex, SurvivalSchedule
)
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

_SEX_CODES = {sex.value: sex for sex in SEX_ROWS}
_SEX_ROW = {sex.value: sex.row for sex in SEX_ROWS}
#: characters that the writers, which print region codes unquoted, cannot write back
_UNWRITABLE = frozenset(',"\r\n')
#: data rows read and checked at a time
_BLOCK = 4096


@contextlib.contextmanager
def _table(path, *headers: list[str]):
    """Open ``path`` and match its stripped header row against the
    accepted ``headers``; yield the matching header and the csv reader,
    positioned at the first data row. A read error anywhere in the
    ``with`` block is a ParseError at line 0."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = [h.strip() for h in next(reader, [])]
            if header not in headers:
                verb = "matches neither" if len(headers) > 1 else "does not match"
                expected = " nor ".join(",".join(h) for h in headers)
                raise ParseError(path, 1, f"header {','.join(header)!r} {verb} {expected}")
            yield header, reader
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(path, 0, f"cannot read file: {exc}") from exc


def _rows(path, header: list[str], reader):
    """``(line_no, stripped fields)`` of each data row of ``reader``,
    skipping blank lines and rejecting a row whose field count differs
    from the header's. A row's line_no is the line it starts on, counting
    quoted fields that span lines."""
    line_no = reader.line_num + 1
    for row in reader:
        if row:
            if len(row) != len(header):
                raise ParseError(path, line_no, f"expected {len(header)} fields, got {len(row)}")
            yield line_no, [f.strip() for f in row]
        line_no = reader.line_num + 1


def _plain(text: str) -> str:
    """``text``, unless it holds a ``_`` or a non-ASCII character: then
    ValueError. ``int`` and ``float`` would read ``1_000`` as 1000 and the
    digits of other scripts as ASCII digits."""
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return text


def _parse_float(path, line_no, field, text) -> float:
    """``text`` as a finite, non-negative float: every number the input
    schemas hold is a count, a probability, a rate or an exposure."""
    try:
        value = float(_plain(text))
    except ValueError:
        raise ParseError(path, line_no, f"{field} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise DataError(path, line_no, f"{field} {text!r} is not finite")
    if value < 0:
        raise DataError(path, line_no, f"negative {field} {value}")
    return value


def _parse_int(path, line_no, field, text) -> int:
    try:
        return int(_plain(text))
    except ValueError:
        raise ParseError(path, line_no, f"{field} {text!r} is not an integer") from None


def _parse_sex(path, line_no, text) -> Sex:
    sex = _SEX_CODES.get(text)
    if sex is None:
        raise ParseError(path, line_no, f"sex must be M or F, got {text!r}")
    return sex


def _region_cells(path, header: list[str], axis: AgeAxis) -> dict:
    """Read a ``region,sex,age,<value>`` file into region code ->
    :class:`Cells`, in first-seen order, all views of one
    ``(R, 2, n_ages)`` float64 array and its presence mask. A file that
    the column reader turns down is read again by the row reader, which
    raises at its first bad line or reads a file in a form the column
    reader does not take (blank lines, blanks around a field)."""
    try:
        read = _column_keys(path, header, axis)
    except (ParseError, ValueError, KeyError):
        read = None
    slots, keys, values = read or _row_keys(path, header, axis)
    shape = (len(slots), 2, axis.n_ages)
    array, present = np.zeros(shape), np.zeros(shape, dtype=bool)
    array.flat[keys], present.flat[keys] = values, True
    return {code: Cells(array[r], present[r]) for code, r in slots.items()}


def _column_keys(path, header: list[str], axis: AgeAxis):
    """Region slots, flat ``(slot, sex row, age)`` keys and values of a
    file read as columns, a block of rows at a time. Every row must have
    four fields, a region code without surrounding blanks, commas, quotes
    or line breaks, a sex of M or F, an age written as one of the axis's
    ages and a finite non-negative number in ASCII without ``_``, and no
    key may repeat; else ValueError or KeyError."""
    age_of = _age_of(axis)
    slots, keys, values = {}, [np.zeros(0, np.intp)], [np.zeros(0)]
    with _table(path, header) as (_, reader):
        while block := list(itertools.islice(reader, _BLOCK)):
            regions, sexes, ages, texts = zip(*block, strict=True)
            for code in dict.fromkeys(regions):
                if not code or code != code.strip() or not _UNWRITABLE.isdisjoint(code):
                    raise ValueError(f"region code {code!r}")
                slots.setdefault(code, len(slots))
            slot = np.fromiter(map(slots.__getitem__, regions), np.intp, len(block))
            sex = np.fromiter(map(_SEX_ROW.__getitem__, sexes), np.intp, len(block))
            age = np.fromiter(map(age_of.__getitem__, ages), np.intp, len(block))
            keys.append((2 * slot + sex) * axis.n_ages + age)
            _plain("".join(texts))
            values.append(np.fromiter(map(float, texts), float, len(block)))
            if not ((values[-1] >= 0) & (values[-1] < math.inf)).all():
                raise ValueError("a value is negative or not finite")
    keys = np.concatenate(keys)
    if not np.diff(np.sort(keys)).all():
        raise ValueError("a key repeats")
    return slots, keys, np.concatenate(values)


@functools.cache
def _age_of(axis: AgeAxis) -> dict:
    """The ages of ``axis`` by their decimal text; read only."""
    return {str(age): age for age in axis.ages()}


def _row_keys(path, header: list[str], axis: AgeAxis):
    """:func:`_column_keys` row by row, rejecting at its line an empty
    region or one with a comma, quote or line break, a bad sex, an age
    off ``axis``, a negative or non-finite value and a duplicate key."""
    slots: dict[str, int] = {}
    cells: dict[int, float] = {}
    with _table(path, header) as (_, reader):
        for line_no, (region, sex_txt, age_txt, value_txt) in _rows(path, header, reader):
            if not region:
                raise ParseError(path, line_no, "region code is empty")
            if not _UNWRITABLE.isdisjoint(region):
                raise ParseError(
                    path, line_no, f"region code {region!r} holds a comma, quote or line break"
                )
            sex = _parse_sex(path, line_no, sex_txt)
            age = _parse_int(path, line_no, "age", age_txt)
            if not axis.contains(age):
                raise ParseError(path, line_no, f"age {age} outside axis 0..{axis.max_age}")
            key = (2 * slots.setdefault(region, len(slots)) + sex.row) * axis.n_ages + age
            if key in cells:
                raise DataError(path, line_no, f"duplicate key ({region}, {sex.value}, {age})")
            cells[key] = _parse_float(path, line_no, header[-1], value_txt)
    keys = np.fromiter(cells, np.intp, len(cells))
    return slots, keys, np.fromiter(cells.values(), float, len(cells))


def load_population_csv(
    path, axis: AgeAxis | None = None, time_label: int = 0
) -> dict:
    """Load ``region,sex,age,count`` rows into one AgePyramid per region.

    Rejects negative counts, duplicate (region, sex, age) keys and ages
    beyond the axis. A header-only file is an empty dataset, not an
    error. Each pyramid is a view of the one array the file was read
    into; absent cells are simply absent, so densify before projecting.
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
    out = []
    seen = set()
    with _table(path, FLOWS_RATE_HEADER, FLOWS_COUNT_HEADER) as (header, reader):
        record = StateFlows if header == FLOWS_COUNT_HEADER else _rate_row
        for line_no, (state, *fields) in _rows(path, header, reader):
            if state in seen:
                raise DataError(path, line_no, f"duplicate state {state!r}")
            seen.add(state)
            values = [_parse_float(path, line_no, name, t) for name, t in zip(header[1:], fields)]
            try:
                out.append(record(RegionId(state, RegionLevel.STATE), *values))
            except DomainError as exc:
                raise DataError(path, line_no, str(exc)) from exc
    if record is StateFlows:
        check_interstate_closure(out)
    return out


def load_fertility_csv(path) -> dict:
    """Load ``age,rate`` rows into an age -> rate mapping."""
    rates: dict[int, float] = {}
    with _table(path, FERTILITY_HEADER) as (header, reader):
        for line_no, (age_txt, rate_txt) in _rows(path, header, reader):
            age = _parse_int(path, line_no, "age", age_txt)
            if age in rates:
                raise DataError(path, line_no, f"duplicate age {age}")
            rates[age] = _parse_float(path, line_no, "rate", rate_txt)
    return rates


def load_observations_csv(path) -> list:
    """Load ``year,count,exposure`` demand observations."""
    out = []
    with _table(path, OBSERVATIONS_HEADER) as (header, reader):
        for line_no, (year_txt, count_txt, exposure_txt) in _rows(path, header, reader):
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
    out: dict[Sex, float] = {}
    with _table(path, UNKNOWN_AGE_HEADER) as (header, reader):
        for line_no, (sex_txt, count_txt) in _rows(path, header, reader):
            sex = _parse_sex(path, line_no, sex_txt)
            if sex in out:
                raise DataError(path, line_no, f"duplicate sex {sex.value}")
            out[sex] = _parse_float(path, line_no, "count", count_txt)
    return out


def write_file(path, chunks: Iterable[str]):
    """Write the text ``chunks`` to ``path`` in order. ``chunks`` may be
    a generator; a file left incomplete by any exception, an interrupt or
    a ``MemoryError`` included, is removed."""
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
        try:
            with fh:
                fh.writelines(chunks)
        except BaseException:
            Path(path).unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise ParseError(path, 0, f"cannot write file: {exc}") from exc


def emit_population_csv(pyramids: Mapping, path):
    """Write pyramids back to the ``region,sex,age,count`` schema with
    round-trip-exact counts, one row per present cell, sorted by (region,
    sex, age). A region with a non-finite count is a DomainError."""
    lines = [",".join(POPULATION_HEADER) + "\n"]
    for code in sorted(pyramids):
        pyramid = pyramids[code]
        if not np.isfinite(pyramid.array).all():
            raise DomainError(f"region {code}: a count is not finite")
        for sex in SEX_ROWS:  # F before M, the order of the sex codes
            present, prefix = pyramid.present[sex.row], f"{code},{sex.value},"
            cells = zip(np.flatnonzero(present).tolist(), pyramid.array[sex.row, present].tolist())
            lines.append("".join([f"{prefix}{age},{v!r}\n" for age, v in cells]))
    write_file(path, lines)


def emit_projection_csv(series: Iterable[tuple[str, ProjectionSeries]], path):
    """Write ``year,region,sex,age,count`` rows, one region at a time, in
    the order given and within a region by (year, sex F then M, age).

    ``series`` may be a generator, so only a few regions' frames need to
    exist at once. A region whose projection is not finite is a
    DomainError naming its first such year, and leaves no file. The rows
    are formatted by forked workers (:func:`_region_texts`); the bytes
    do not depend on how many.
    """
    texts = _region_texts(_checked_frames(series))
    try:
        write_file(path, itertools.chain([",".join(PROJECTION_HEADER) + "\n"], texts))
    finally:
        texts.close()


def _checked_frames(series):
    """``(code, start year, axis, frames)`` of each region, the frames
    flattened to one row per year and checked to be finite."""
    for code, projection in series:
        frames = projection.counts.reshape(len(projection.counts), -1)
        bad = ~np.isfinite(frames).all(axis=1)
        if bad.any():
            year = projection.start + int(bad.argmax())
            raise DomainError(f"projection of region {code} is not finite in year {year}")
        yield code, projection.start, projection.axis, frames


def _region_rows(code: str, start: int, axis: AgeAxis, frames: np.ndarray) -> str:
    """The ``projection.csv`` rows of one region's checked frames."""
    cells = [f"{sex.value},{age}," for sex in SEX_ROWS for age in axis.ages()]
    text = []
    for k, values in enumerate(frames.tolist()):
        prefix = f"{start + k},{code},"
        text.append("".join([f"{prefix}{cell}{v!r}\n" for cell, v in zip(cells, values)]))
    return "".join(text)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _region_texts(regions):
    """The rows of each region in ``regions``, in order. With two or more
    usable CPUs, two or more regions and the ``fork`` start method, one
    forked worker per CPU formats them; else, or while other threads run
    (a forked child would inherit their locks in whatever state), this
    process does."""
    regions = iter(regions)
    head = list(itertools.islice(regions, 2))
    regions = itertools.chain(head, regions)
    workers = _usable_cpus()
    if workers > 1 and len(head) > 1:
        import multiprocessing  # here, not at the top: it costs every command ~13 ms to import
        import threading

        if "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1:
            yield from _forked_texts(multiprocessing.get_context("fork"), workers, regions)
            return
    for region in regions:
        yield _region_rows(*region)


def _forked_texts(ctx, n_workers: int, regions):
    """:func:`_region_texts` on ``n_workers`` forked workers, started as
    the first regions arrive. Region k goes to worker k mod n_workers,
    whose reply for region k - n_workers comes back in exchange, so
    each worker holds at most two regions and the replies arrive in
    region order. On any exit every worker is told to stop and reaped."""
    workers = []
    try:
        n = 0
        for n, region in enumerate(regions, start=1):
            if len(workers) < n_workers:
                workers.append(_start_worker(ctx, workers))
                _exchange(*workers[-1], region, reply=False)
            else:
                yield _exchange(*workers[(n - 1) % n_workers], region)
        for k in range(max(n - n_workers, 0), n):
            yield _exchange(*workers[k % n_workers], None)
    finally:
        for _, conn in workers:
            conn.close()
        for proc, _ in workers:
            proc.join()


def _start_worker(ctx, workers):
    """Fork one more worker; return it and the parent's end of its pipe."""
    parent_end, child_end = ctx.Pipe()
    inherited = [conn for _, conn in workers] + [parent_end]
    proc = ctx.Process(target=_format_worker, args=(child_end, inherited), daemon=True)
    proc.start()
    child_end.close()
    return proc, parent_end


def _exchange(proc, conn, message, reply=True):
    """Send ``message`` (a region, or None to stop) to a worker and, with
    ``reply``, return the rows of the region it was sent before."""
    try:
        conn.send(message)
        return conn.recv_bytes().decode() if reply else None
    except (EOFError, OSError):
        conn.close()
        proc.join()
        raise UidforgeError(
            f"projection formatting worker {proc.pid} exited with code {proc.exitcode}"
        ) from None


def _format_worker(conn, inherited):
    """Worker loop: format each region that arrives on ``conn``. A
    region's rows are sent back only after the next message (a region,
    or None to stop) has been read, so the parent never waits on a send
    that this worker is not reading. Exits quietly on None or when the
    parent's end closes; ignores SIGINT, which the parent handles."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in inherited:  # copies of the parent's ends; each worker sees EOF when it closes
        other.close()
    try:
        region = conn.recv()
        while region is not None:
            rows = _region_rows(*region)
            region = conn.recv()
            conn.send_bytes(rows.encode())
    except (EOFError, OSError):
        pass


def emit_demand_csv(series: DemandSeries, path):
    """Write the demand series with counts rounded half to even."""
    columns = (series.years, series.new_male, series.new_female, series.returned)
    lines = [",".join(DEMAND_HEADER) + "\n"]
    for year, male, female, returned in zip(*(c.tolist() for c in columns)):
        lines.append(f"{year},{round(male)},{round(female)},{round(returned)}\n")
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
    if len(series.years) < 2:
        raise InsufficientDataError(
            f"chart needs at least 2 rows, series has {len(series.years)}"
        )
    years, male, female = (c.tolist() for c in (series.years, series.new_male, series.new_female))

    y_max = max(male + female)
    y_min = 0.0
    y_span = y_max - y_min if y_max > y_min else 1.0
    x_min, x_max = years[0], years[-1]
    x_span = x_max - x_min if x_max > x_min else 1

    plot_w = _CHART_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _CHART_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    # each x coordinate is formatted once, for both polylines
    xs = [f"{_MARGIN_LEFT + (year - x_min) / x_span * plot_w:.2f}," for year in years]

    def points(values):
        ys = [_MARGIN_TOP + (1.0 - (v - y_min) / y_span) * plot_h for v in values]
        return " ".join([f"{x}{y:.2f}" for x, y in zip(xs, ys)])

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
