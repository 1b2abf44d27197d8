"""Per-backend kernel table on cold-solve's inputs.

For the first few requests of the ``cold-solve`` stream of a seed (BT(256),
k=16, every switch available: exactly the networks a fresh cold-solve
service gathers), time each layer under every name its registry holds:

* gather under :data:`repro.core.engine.ENGINES`,
* repair under :data:`repro.core.engine.REPAIRERS`, for the flip of one
  switch of the optimal placement out of Λ,
* colour under :data:`repro.core.color.COLOR_KERNELS`,
* cost under :data:`repro.core.cost.COST_KERNELS`.

Each result is first checked bit for bit against the ``flat`` engine (and
the kernels it colours and costs with); timings are medians in ms.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from repro.core.color import COLOR_KERNELS, trace_color
from repro.core.cost import COST_KERNELS, evaluate_cost
from repro.core.engine import ENGINES, REPAIRERS, gather, repair
from repro.core.solver import Solver
from repro.testing import assert_tables_equal

from workloads import BUDGET, ColdSolve

#: (layer, registry) pairs; the metric is ``backend.<layer>.<name>_ms``.
REGISTRIES = (
    ("gather", ENGINES),
    ("repair", REPAIRERS),
    ("color", COLOR_KERNELS),
    ("cost", COST_KERNELS),
)
INPUTS = 4
REPEATS = 3


def metric_names() -> list[str]:
    return [
        f"backend.{layer}.{name}_ms"
        for layer, registry in REGISTRIES
        for name in sorted(registry)
    ]


def _time_ms(call, repeats: int = REPEATS) -> list[float]:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append((time.perf_counter() - start) * 1e3)
    return samples


def kernel_table(seed: int, workdir: Path) -> tuple[dict[str, float], list[str]]:
    """Return ({metric: median ms}, [bit-identity failures])."""
    stream = ColdSolve(seed, workdir)
    samples: dict[str, list[float]] = {name: [] for name in metric_names()}
    errors: list[str] = []
    for _ in range(INPUTS):
        loads = dict(stream.next_request().loads)
        tree = stream.tree.with_loads(loads, available=stream.tree.switches)
        table = Solver().gather(tree, BUDGET)
        flat = table.result
        placement = table.place(BUDGET)
        model = table.cost_model()

        for name in ENGINES:
            result = gather(tree, BUDGET, engine=name)
            try:
                assert_tables_equal(flat, result)
            except AssertionError as exc:
                errors.append(f"gather engine {name!r} differs from flat: {exc}")
            samples[f"backend.gather.{name}_ms"] += _time_ms(
                lambda: gather(tree, BUDGET, engine=name)
            )

        flipped = min(placement.blue_nodes, key=repr)
        repaired_tree = tree.with_available(tree.available - {flipped})
        expected = gather(repaired_tree, BUDGET)
        for name in REPAIRERS:
            try:
                assert_tables_equal(expected, repair(flat, repaired_tree, engine=name))
            except AssertionError as exc:
                errors.append(f"repairer {name!r} differs from a cold flat gather: {exc}")
            samples[f"backend.repair.{name}_ms"] += _time_ms(
                lambda: repair(flat, repaired_tree, engine=name)
            )

        for name in COLOR_KERNELS:
            if trace_color(tree, flat, budget=BUDGET, color=name) != placement.blue_nodes:
                errors.append(f"colour kernel {name!r} differs from the flat placement")
            samples[f"backend.color.{name}_ms"] += _time_ms(
                lambda: trace_color(tree, flat, budget=BUDGET, color=name)
            )

        for name in COST_KERNELS:
            cost = evaluate_cost(tree, placement.blue_nodes, cost=name, model=model)
            if cost != placement.cost:
                errors.append(f"cost kernel {name!r} gives {cost!r}, flat {placement.cost!r}")
            samples[f"backend.cost.{name}_ms"] += _time_ms(
                lambda: evaluate_cost(tree, placement.blue_nodes, cost=name, model=model)
            )
    return {name: statistics.median(values) for name, values in samples.items()}, errors
