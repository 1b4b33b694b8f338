"""Core demographic types: age axis, regions, population pyramids,
survival schedules and fertility configuration.

All types are immutable after construction and safe to share between
threads; every operation in this package is a pure function of them.
Pyramids and survival schedules hold their cells in a read-only float64
array of shape ``(2, n_ages)``, rows in :data:`SEX_ROWS` order, with a
mask of the cells present (:class:`Cells`, which ``AgePyramid.counts``
and ``SurvivalSchedule.one_year`` hold). The CSV loaders fill that array
directly and the projection and coverage arithmetic run on it; a cell is
read from the array, or by ``AgePyramid.count``. A (sex, age) -> number
mapping given to either constructor is copied into that array, and a
cell off the axis is a ``DomainError``; ``Cells`` given to either must
hold a float64 array and a bool mask of shape ``(2, n_ages)``, else a
``DomainError``. An axis ends at
:data:`MAX_AGE_LIMIT` at most.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import DomainError

#: Ages treated as reproductive for fertility purposes (inclusive range).
REPRODUCTIVE_AGE_MIN = 15
REPRODUCTIVE_AGE_MAX = 49

#: Largest ``max_age`` an :class:`AgeAxis` takes: well past any human
#: life, and small enough that every per-age table stays tiny.
MAX_AGE_LIMIT = 150


class Sex(Enum):
    MALE = "M"
    FEMALE = "F"

    @property
    def row(self) -> int:
        """Index of this sex on the first axis of a ``(2, n_ages)`` array."""
        return SEX_ROWS.index(self)


#: Row order of the sex axis in ``(2, n_ages)`` arrays: F before M, the
#: order in which every CSV file lists them.
SEX_ROWS = (Sex.FEMALE, Sex.MALE)


class RegionLevel(Enum):
    COUNTRY = "country"
    STATE = "state"
    REGION = "region"


@dataclass(frozen=True)
class AgeAxis:
    """Single-year age axis 0..max_age inclusive.

    ``max_age`` is the last age of life; anybody reaching it does not
    survive a further year. Source data with an open-ended top group
    should be collapsed into ``max_age`` before constructing pyramids.
    """

    max_age: int = 100

    def __post_init__(self):
        if not isinstance(self.max_age, int) or not 1 <= self.max_age <= MAX_AGE_LIMIT:
            raise DomainError(
                f"max_age must be an integer in 1..{MAX_AGE_LIMIT}, got {self.max_age!r}"
            )

    @property
    def n_ages(self) -> int:
        return self.max_age + 1

    def ages(self) -> range:
        return range(0, self.max_age + 1)

    def contains(self, age: int) -> bool:
        return 0 <= age <= self.max_age


@dataclass(frozen=True)
class RegionId:
    """Identifier for a node in the region hierarchy."""

    code: str
    level: RegionLevel = RegionLevel.REGION

    def __post_init__(self):
        if not self.code:
            raise DomainError("region code must be non-empty")


def require_finite_nonnegative(name: str, value) -> None:
    """Raise :class:`DomainError` unless ``value`` is finite and >= 0
    (``nan`` and ``inf`` pass a bare ``< 0`` check, so test both)."""
    if not (math.isfinite(value) and value >= 0):
        raise DomainError(f"{name} must be finite and >= 0, got {value!r}")


@functools.cache
def _all_present(shape: tuple) -> np.ndarray:
    """The read-only all-true mask of ``shape``, shared by the dense Cells."""
    mask = np.ones(shape, dtype=bool)
    mask.flags.writeable = False
    return mask


class Cells:
    """A read-only float64 ``(2, n_ages)`` ``array`` of (sex, age) values
    and its ``present`` mask (default: every cell); absent cells hold 0.0.
    ``len`` counts the cells present; two Cells are equal when they hold
    the same cells with the same values."""

    __slots__ = ("array", "present")

    def __init__(self, array: np.ndarray, present: np.ndarray | None = None):
        present = _all_present(array.shape) if present is None else present
        # clearing the flag costs several times more than reading it
        if array.flags.writeable:
            array.flags.writeable = False
        if present.flags.writeable:
            present.flags.writeable = False
        self.array, self.present = array, present

    @classmethod
    def of(cls, cells: Mapping, axis: AgeAxis) -> "Cells":
        """Copy of a (sex, age) -> number mapping on ``axis``; a cell off
        the axis is a DomainError."""
        array, present = np.zeros((2, axis.n_ages)), np.zeros((2, axis.n_ages), dtype=bool)
        for (sex, age), v in dict(cells).items():
            if not (isinstance(sex, Sex) and isinstance(age, numbers.Integral)):
                raise DomainError(f"cell key {(sex, age)!r} is not a (Sex, integer age) pair")
            if not isinstance(v, numbers.Real):  # numpy scalars included
                raise DomainError(f"cell ({sex.value}, {age}) = {v!r} is not a number")
            if age not in range(axis.n_ages):
                raise DomainError(
                    f"cell ({sex.value}, {age}) lies beyond the axis 0..{axis.max_age}"
                )
            age = int(age)  # a bool would index as a mask
            array[sex.row, age], present[sex.row, age] = v, True
        return cls(array, present)

    def __len__(self) -> int:
        return np.count_nonzero(self.present)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cells):
            return NotImplemented
        return np.array_equal(self.present, other.present) and np.array_equal(
            self.array[self.present], other.array[other.present]
        )


def _check_cells(cells: Cells, axis: AgeAxis):
    """DomainError unless the array of ``cells`` is float64, its mask is
    bool and both have shape ``(2, axis.n_ages)``."""
    array, present, shape = cells.array, cells.present, (2, axis.n_ages)
    if not (
        array.dtype == np.float64 and present.dtype == bool
        and array.shape == present.shape == shape
    ):
        raise DomainError(
            f"cells must be a float64 array and a bool mask of shape {shape}, got "
            f"{array.dtype} {array.shape} and {present.dtype} {present.shape}"
        )


@dataclass(frozen=True, eq=True)
class AgePyramid:
    """Population counts by (sex, single-year age) for one region at one
    point in time.

    Counts are expected-value reals, not integers; rounding happens only
    at report time. ``counts`` is the :class:`Cells` behind the read-only
    ``array`` and its ``present`` mask; a (sex, age) -> number mapping
    given to the constructor is copied into that form, and a cell off the
    axis is a DomainError, as are Cells of another dtype or shape than
    float64 and bool ``(2, n_ages)``. Otherwise the container is
    deliberately permissive: sparse cells and negative or non-finite
    counts are representable, and the CSV loaders, not the constructor,
    reject bad input. Missing cells read as 0.0 through :meth:`count`.
    """

    region: RegionId
    time_label: int
    axis: AgeAxis = field(default_factory=AgeAxis)
    counts: Cells | Mapping = field(default_factory=dict)

    def __post_init__(self):
        if isinstance(self.counts, Cells):
            _check_cells(self.counts, self.axis)
        else:
            object.__setattr__(self, "counts", Cells.of(self.counts, self.axis))

    @property
    def array(self) -> np.ndarray:
        """Counts as a read-only ``(2, n_ages)`` array; missing cells read
        0.0."""
        return self.counts.array

    @property
    def present(self) -> np.ndarray:
        """Read-only ``(2, n_ages)`` mask of the cells present."""
        return self.counts.present

    def count(self, sex: Sex, age: int) -> float:
        """The (sex, age) cell; 0.0 if it is absent or off the axis."""
        if age in range(self.axis.n_ages) and self.present.item(sex.row, int(age)):
            return self.array.item(sex.row, int(age))
        return 0.0

    def total(self, sex: Sex | None = None) -> float:
        """Sum of the present cells, added in (sex, age) order."""
        if sex is None:
            return float(sum(self.array[self.present].tolist()))
        return float(sum(self.array[sex.row, self.present[sex.row]].tolist()))

    def densified(self) -> "AgePyramid":
        """Copy with every (sex, age) cell present, missing cells as 0.0."""
        return AgePyramid.from_array(self.region, self.time_label, self.axis, self.array)

    def replace_counts(self, array: np.ndarray) -> "AgePyramid":
        """Copy over a float64 ``(2, n_ages)`` ``array`` that the caller
        no longer writes, with this pyramid's mask."""
        return AgePyramid(self.region, self.time_label, self.axis, Cells(array, self.present))

    @classmethod
    def from_array(
        cls, region: RegionId, time_label: int, axis: AgeAxis, array: np.ndarray
    ) -> "AgePyramid":
        """Dense pyramid over a copy of the ``(2, n_ages)`` ``array``."""
        if array.shape != (2, axis.n_ages):
            raise DomainError(
                f"pyramid array must have shape (2, {axis.n_ages}), got {array.shape}"
            )
        return cls._dense(region, time_label, axis, np.array(array, dtype=float))

    @classmethod
    def _dense(
        cls, region: RegionId, time_label: int, axis: AgeAxis, array: np.ndarray
    ) -> "AgePyramid":
        """Dense pyramid over the float64 ``(2, n_ages)`` ``array`` itself,
        which the caller gives up; the fields are set directly, with no
        mapping to copy."""
        pyramid = object.__new__(cls)
        pyramid.__dict__.update(
            region=region, time_label=time_label, axis=axis, counts=Cells(array)
        )
        return pyramid


@dataclass(frozen=True)
class SurvivalSchedule:
    """One-year survival probabilities by (sex, age) for a region.

    ``array[sex.row, x]`` is the chance that a person of age x lives to
    age x+1; ``one_year`` is the :class:`Cells` behind that read-only
    array, and a (sex, age) -> number mapping given to the constructor is
    copied into that form; Cells given to it are checked like a
    pyramid's. The schedule is dense: every age 0..max_age
    must be present for both sexes, values lie in [0, 1], and the value
    at the last age of life is 0. Multi-year survival is always composed
    from these one-year factors, keeping a single source of truth; the
    multi-year survival oracle in ``tests/oracles.py`` is the
    cell-by-cell reference for the array arithmetic in
    :mod:`uidforge.projection`.
    """

    region: RegionId
    axis: AgeAxis
    one_year: Cells | Mapping

    def __post_init__(self):
        cells = self.one_year
        if isinstance(cells, Cells):
            _check_cells(cells, self.axis)
        else:
            cells = Cells.of(cells, self.axis)
        for sex in Sex:
            p, present = cells.array[sex.row], cells.present[sex.row]
            bad = ~(present & (p >= 0.0) & (p <= 1.0))
            if bad.any():
                age = int(bad.argmax())
                if not present[age]:
                    raise DomainError(f"survival schedule missing ({sex.value}, {age})")
                raise DomainError(
                    f"survival({sex.value}, {age}) = {p.item(age)!r} is not a probability"
                )
            if p[-1] != 0.0:
                raise DomainError(
                    f"survival at last age of life ({self.axis.max_age}) must be 0"
                )
        object.__setattr__(self, "one_year", cells)

    @property
    def array(self) -> np.ndarray:
        """One-year survival as a read-only ``(2, n_ages)`` array."""
        return self.one_year.array

    @classmethod
    def flat(
        cls, region: RegionId, axis: AgeAxis, male: float, female: float | None = None
    ) -> "SurvivalSchedule":
        """Constant survival at every age (the last age of life stays 0)."""
        p = np.empty((2, axis.n_ages))
        p[Sex.MALE.row] = float(male)
        p[Sex.FEMALE.row] = float(male if female is None else female)
        p[:, -1] = 0.0
        return cls(region, axis, Cells(p))


@dataclass(frozen=True)
class FertilityConfig:
    """Age-specific fertility rates plus the scalars needed to turn them
    into sexed birth counts.

    rates
        births per woman per year by single-year age; nonzero only for
        ages 15..49.
    eligible_proportion
        fraction of women in the reproductive band counted as exposed to
        childbearing. Its real-world definition is an open data question,
        so it is a plain exogenous input here.
    sex_ratio_at_birth
        male births per female birth (> 0); no default is asserted.
    infant_mortality
        deaths before age one per 1000 live births, used only by the
        issue-at-age-one card policy.
    """

    rates: Mapping
    eligible_proportion: float
    sex_ratio_at_birth: float
    infant_mortality: float = 0.0

    def __post_init__(self):
        cells = {}
        for age, f in dict(self.rates).items():
            if not isinstance(age, int):
                raise DomainError(f"fertility age {age!r} must be an integer")
            if not (math.isfinite(f) and f >= 0.0):
                raise DomainError(f"fertility rate at age {age} must be finite and >= 0")
            if f != 0.0 and not (REPRODUCTIVE_AGE_MIN <= age <= REPRODUCTIVE_AGE_MAX):
                raise DomainError(
                    f"nonzero fertility at age {age} outside "
                    f"[{REPRODUCTIVE_AGE_MIN}, {REPRODUCTIVE_AGE_MAX}]"
                )
            cells[age] = float(f)
        object.__setattr__(self, "rates", MappingProxyType(cells))
        if not 0.0 <= self.eligible_proportion <= 1.0:
            raise DomainError("eligible_proportion must lie in [0, 1]")
        if not (math.isfinite(self.sex_ratio_at_birth) and self.sex_ratio_at_birth > 0):
            raise DomainError("sex_ratio_at_birth must be > 0")
        if not 0.0 <= self.infant_mortality <= 1000.0:
            raise DomainError("infant_mortality must lie in [0, 1000] per 1000 births")

    def rate(self, age: int) -> float:
        return self.rates.get(age, 0.0)

    @cached_property
    def band_rates(self) -> np.ndarray:
        """Rates at ages 15..49 as a read-only array."""
        band = range(REPRODUCTIVE_AGE_MIN, REPRODUCTIVE_AGE_MAX + 1)
        out = np.array([self.rate(x) for x in band])
        out.flags.writeable = False
        return out

    @property
    def infant_survival(self) -> float:
        """Share of live births that complete their first year."""
        return 1.0 - self.infant_mortality / 1000.0

    @cached_property
    def male_share(self) -> float:
        """Share of births that are male, r / (1 + r)."""
        r = self.sex_ratio_at_birth
        return r / (1.0 + r)

    @classmethod
    def flat(
        cls,
        rate: float,
        eligible_proportion: float,
        sex_ratio_at_birth: float,
        infant_mortality: float = 0.0,
    ) -> "FertilityConfig":
        rates = {age: rate for age in range(REPRODUCTIVE_AGE_MIN, REPRODUCTIVE_AGE_MAX + 1)}
        return cls(rates, eligible_proportion, sex_ratio_at_birth, infant_mortality)
