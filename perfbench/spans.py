"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces public functions at the names their callers
look up (``uidforge.cli.project_population``,
``uidforge.ledger.deaths_by_age`` ...) with wrappers that append one
span per call: (name, start, end, parent span index, command id).
Spans stay in memory until the run ends. A span's self time is its
duration minus the part of its interval that its child spans cover, so
the self times of one command's spans add up to its root span.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import numpy as np

# (module, attribute, span name); the module is a dotted path, the
# attribute may be Class.method. Names are "<layer>.<what>".
WRAP_POINTS = (
    ("uidforge.cli", "main", "cli.main"),
    ("uidforge.cli", "load_population_csv", "csvio.load"),
    ("uidforge.cli", "load_survival_csv", "csvio.load"),
    ("uidforge.cli", "load_fertility_csv", "csvio.load"),
    ("uidforge.cli", "load_flows_csv", "csvio.load"),
    ("uidforge.cli", "load_observations_csv", "csvio.load"),
    ("uidforge.cli", "load_unknown_age_csv", "csvio.load"),
    ("uidforge.cli", "emit_population_csv", "csvio.emit"),
    ("uidforge.cli", "emit_demand_csv", "csvio.emit"),
    ("uidforge.cli", "render_series_chart", "csvio.chart"),
    ("uidforge.cli", "apply_omission_adjustment", "coverage.adjust"),
    ("uidforge.cli", "allocate_unknown_age", "coverage.adjust"),
    ("uidforge.cli", "project_population", "projection.project"),
    ("uidforge.cli", "annual_card_requirement_series", "ledger.sim"),
    ("uidforge.cli", "metropolis_sample", "bayes.sample"),
    ("uidforge.cli", "summarize_chain", "bayes.summarize"),
    ("uidforge.core", "AgePyramid.densified", "core.densify"),
    ("uidforge.projection", "project_births", "projection.births"),
    ("uidforge.projection", "survive_cohorts", "projection.step"),
    ("uidforge.ledger", "project_births", "projection.births"),
    ("uidforge.ledger", "survive_cohorts", "projection.step"),
    ("uidforge.ledger", "deaths_by_age", "projection.deaths"),
    ("uidforge.ledger", "age15_transition", "ledger.age15"),
    ("uidforge.ledger", "process_card_returns", "ledger.returns"),
)

# span names whose arguments or results feed a count
COUNTED = {"csvio.load", "coverage.adjust", "bayes.sample"}


class Tracer:
    """Span recorder over ``modules`` (name -> module). ``install``
    patches :data:`WRAP_POINTS`, ``uninstall`` puts the originals back."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []
        self.command = -1
        self.counts: Counter = Counter()
        self.inputs: list = []  # paths the loaders read, for counting rows later
        self._stack: list = []
        self._patched: list = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.command)
            if name in COUNTED:
                self._count(name, args, result)
            return result

        return traced

    def _count(self, name: str, args, result):
        if name == "csvio.load":
            self.inputs.append(str(args[0]))
        elif name == "coverage.adjust":
            self.counts["coverage.cells_adjusted"] += len(result.counts)
        else:  # bayes.sample: a proposal was accepted iff the chain moved
            s = result.samples
            self.counts["bayes.samples"] += s.size
            self.counts["bayes.proposals"] += s.size - 1
            self.counts["bayes.accepted"] += int(np.count_nonzero(s[1:] != s[:-1]))

    def install(self):
        for module_name, attr, name in WRAP_POINTS:
            owner = self.modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            setattr(owner, leaf, self.wrap(original, name))
            self._patched.append((owner, leaf, original))

    def uninstall(self):
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)


def self_times(spans) -> list:
    """Self time of every span: its duration minus the union of its
    children's intervals clipped to its own."""
    children: list = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children[i], key=lambda k: spans[k][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def self_by_name(spans) -> dict:
    """Total self time and call count per span name."""
    totals: dict = {}
    for span, own in zip(spans, self_times(spans)):
        t, n = totals.get(span[0], (0.0, 0))
        totals[span[0]] = (t + own, n + 1)
    return totals
