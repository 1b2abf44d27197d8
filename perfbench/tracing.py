"""In-memory spans around the public entry points of each service layer.

:class:`Tracer` replaces each entry point named in :data:`LAYERS` with a
wrapper that records one span per call: its id, the id of the span that
caused it, the id of the request (the enclosing ``submit`` span), the span
name, start and end (``perf_counter``), and whether the call returned a
value.  Nothing under ``src/`` changes: functions are wrapped where the
calling module looks them up (``trace_color`` and ``evaluate_cost`` in
``repro.core.solver``, ``fingerprint_loads`` in ``repro.service.api``) and
methods on their classes.  :meth:`Tracer.uninstall` puts the originals back.

A span's self time is its duration minus the durations of its child spans;
a layer's busy time is the sum of its spans' self times.  The self times
of all spans under the ``submit`` spans therefore add up to the ``submit``
total, and ``api.self_ms`` is what ``submit`` spent outside every wrapped
layer (validation, load freezing, locking, response building).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from collections import defaultdict

#: (module, attribute path, span name).  ``state`` groups the three fleet
#: mutations; the cache lookups keep one name each.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("repro.service.api", "PlacementService.submit", "api"),
    ("repro.core.solver", "Solver.gather", "core.gather"),
    ("repro.core.solver", "GatherTable.repair", "core.repair"),
    ("repro.core.solver", "trace_color", "core.color"),
    ("repro.core.solver", "evaluate_cost", "core.cost"),
    ("repro.service.api", "fingerprint_loads", "tree.fingerprint"),
    ("repro.core.tree", "TreeNetwork.with_loads", "tree.with_loads"),
    ("repro.service.cache", "GatherTableCache.solution", "cache.solution"),
    ("repro.service.cache", "GatherTableCache.lookup", "cache.lookup"),
    ("repro.service.cache", "GatherTableCache.store", "cache.store"),
    ("repro.service.cache", "GatherTableCache.store_solution", "cache.store_solution"),
    ("repro.service.cache", "GatherTableCache.repair_candidate", "cache.repair_candidate"),
    ("repro.service.persistence", "Journal.append", "journal.append"),
    ("repro.service.state", "FleetState.register", "state"),
    ("repro.service.state", "FleetState.withdraw", "state"),
    ("repro.service.state", "FleetState.drain", "state"),
)

ROOT = "api"


class Tracer:
    """Records spans while installed; single-threaded use only."""

    def __init__(self) -> None:
        #: (span id, parent id, request id, name, start, end, returned a value)
        self.spans: list[tuple[int, int, int, str, float, float, bool]] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, path, name in LAYERS:
            owner: object = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = vars(owner)[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def _wrap(self, function, name: str):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = next(ids)
            parent = stack[-1] if stack else 0
            request = stack[0] if stack else span
            stack.append(span)
            returned = False
            start = clock()
            try:
                result = function(*args, **kwargs)
                returned = result is not None
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((span, parent, request, name, start, end, returned))

        return traced


def layer_summary(spans) -> dict[str, dict]:
    """Per span name: calls, busy (self) seconds, inclusive durations."""
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, _, start, end, _ in spans:
        if parent:
            child_time[parent] += end - start
    summary: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "durations": [], "returned": 0}
    )
    for span, _, _, name, start, end, returned in spans:
        entry = summary[name]
        entry["calls"] += 1
        entry["busy_s"] += (end - start) - child_time[span]
        entry["durations"].append(end - start)
        entry["returned"] += returned
    return summary


def served_from_spans(summary: dict[str, dict]) -> dict[str, int]:
    """How each cached solve was answered, as seen at the layer boundaries.

    A solution-memo lookup that returned a value is a ``memo`` answer, a
    table lookup that returned one a ``table`` answer, a completed
    ``GatherTable.repair`` a ``repair`` answer and a ``Solver.gather`` call
    a ``gather`` answer.
    """
    def returned(name: str) -> int:
        return summary[name]["returned"] if name in summary else 0

    return {
        "memo": returned("cache.solution"),
        "table": returned("cache.lookup"),
        "repair": returned("core.repair"),
        "gather": summary["core.gather"]["calls"] if "core.gather" in summary else 0,
    }
