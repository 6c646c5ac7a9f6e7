"""In-memory spans and counters around dqc's public functions.

Tracing replaces module attributes in this process only.  Every dqc
module attribute bound to a wrapped object is swapped for a recording
wrapper (``entangle.run_blocks`` is the same function as
``census.run_blocks``, and ``cli.census_tally`` the same as
``entangle.census_tally``), and ``Tracer.uninstall`` puts the originals
back.  Nothing in the package changes.

A span is (id, name, start, end, parent, cell).  Spans of one cell share
the cell index.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

from dqc import census, cli, entangle

from workloads import prefixes

# Spans per layer metric; a metric is the per-cell sum of its spans.
LAYER_SPANS = {
    "census.count_norm_class_s": ("census.count_norm_class",),
    "census.count_irreducible_s": ("census.count_irreducible",),
    "census.verify_fixed_s": (
        "census.closed_form_counts",
        "census.zero_norm_by_recurrence",
        "census.spot_invariants",
    ),
    "census.run_blocks_s": ("census.run_blocks",),
    "entangle.census_tally_s": ("entangle.census_tally",),
}

COUNTERS = (
    "census.prefixes",
    "census.pool_starts",
    "entangle.states_classified",
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    cell: int


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(Counter)  # cell -> counter name -> count
        self.cell = -1
        self._stack: list = []
        self._saved: list = []  # (module, attribute, original)

    # -- recording ------------------------------------------------------

    def begin_cell(self, index: int) -> None:
        self.cell = index

    def count(self, name: str, k: int) -> None:
        self.counts[self.cell][name] += k

    def open(self, name: str) -> Span:
        span = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=self._stack[-1].id if self._stack else None,
            cell=self.cell,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _timed(self, name: str, fn, on_result=None):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                on_result(sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def _replace(self, original, replacement) -> None:
        """Rebind every dqc module attribute that is ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dqc" or mod_name.startswith("dqc.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        def walk_d(args, _):
            self.count("census.prefixes", prefixes(args["prime"].p, args["d"]))

        def walk_n(args, _):
            self.count(
                "census.prefixes", prefixes(args["prime"].p, 1 << args["n"])
            )

        def tallied(args, tally):
            walk_n(args, tally)
            self.count("entangle.states_classified", tally.irreducible_total)

        timed = [
            (census, "verify", None),
            (census, "count_norm_class", walk_d),
            (census, "count_irreducible", walk_n),
            (census, "closed_form_counts", None),
            (census, "zero_norm_by_recurrence", None),
            (census, "spot_invariants", None),
            (census, "run_blocks", None),
            (entangle, "census_tally", tallied),
            (cli, "main", None),
        ]
        for mod, attr, on_result in timed:
            fn = getattr(mod, attr)
            name = f"{mod.__name__.split('.')[-1]}.{attr}"
            self._replace(fn, self._timed(name, fn, on_result))

        pool = census.Pool

        def counted_pool(*args, **kwargs):
            self.count("census.pool_starts", 1)
            return pool(*args, **kwargs)

        self._replace(pool, counted_pool)

        walk = census.iter_irreducible

        def counted_walk(*args, **kwargs):
            walk_n(inspect.signature(walk).bind(*args, **kwargs).arguments, None)
            return walk(*args, **kwargs)

        self._replace(walk, counted_walk)

        stream = entangle.iter_classified

        def counted_stream(*args, **kwargs):
            emitted = 0
            try:
                for item in stream(*args, **kwargs):
                    emitted += 1
                    yield item
            finally:
                self.count("entangle.states_classified", emitted)

        self._replace(stream, counted_stream)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> dict:
        """Per span: its duration minus the durations of its children."""
        child = Counter()
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return {s.id: (s.end - s.start) - child[s.id] for s in self.spans}

    def per_cell(self, cells: int) -> list:
        """Layer metrics and counters of each cell, in cell order."""
        own = self.self_times()
        rows = [defaultdict(float) for _ in range(cells)]
        for s in self.spans:
            if not 0 <= s.cell < cells:
                continue
            row = rows[s.cell]
            for metric, names in LAYER_SPANS.items():
                if s.name in names:
                    row[metric] += s.end - s.start
            if s.name == "entangle.census_tally":
                # census_tally minus the run_blocks inside it
                row["entangle.tally_merge_s"] += own[s.id]
        for i, row in enumerate(rows):
            for metric in list(LAYER_SPANS) + ["entangle.tally_merge_s"]:
                row.setdefault(metric, 0.0)
            for name in COUNTERS:
                row[name] = self.counts[i][name]
        return [dict(r) for r in rows]

    def dump(self) -> list:
        return [asdict(s) for s in self.spans]
