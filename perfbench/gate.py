"""Correctness gate, run after the timed stream and outside the timer.

Three checks; each failure is a message in the returned list, and any
message makes the benchmark exit non-zero.

1. Every solve, sweep and admit response, and every re-placement a drain
   reports, is solved again cold with :class:`repro.core.solver.Solver` at
   the Λ the service had before the request.  Blue set, ``cost`` and
   ``predicted_cost`` must match bit for bit.  Cold answers are memoised
   per distinct (loads, Λ, budgets).
2. :func:`payload_checkpoints` digests
   :func:`repro.service.driver.response_payload` over the run, so two runs
   of one seed can be compared request for request.
3. :func:`reconcile_stats` checks the per-request change of ``CacheStats``
   against the ``cache_source`` each response reports.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.solver import Solver
from repro.core.tree import NodeId, TreeNetwork
from repro.service.api import (
    AdmitResponse,
    DrainRequest,
    DrainResponse,
    ReleaseResponse,
    Request,
    Response,
    SolveResponse,
    StatsResponse,
    SweepRequest,
    SweepResponse,
)
from repro.service.driver import response_payload

#: Requests per digest checkpoint.
CHECKPOINT = 64
#: CacheStats counters a record keeps the per-request change of.
STAT_FIELDS = ("solution_hits", "table_hits", "misses", "repairs", "repair_hits")


@dataclass
class Record:
    """One served request, with what the gate needs to judge it."""

    request: Request
    response: Response | None
    #: The tuple the request's loads mapping was built from (``()`` if none).
    loads: tuple
    #: Λ read from ``service.state.available()`` just before the request.
    available: frozenset[NodeId]
    #: Change of each :data:`STAT_FIELDS` counter across the request.
    deltas: tuple[int, ...]
    #: For drains: (residual capacities, drained switches, tenant registry)
    #: just before the request.
    before_drain: tuple | None = None


class ColdOracle:
    """Cold re-solves with the default :class:`Solver`, memoised."""

    def __init__(self, tree: TreeNetwork) -> None:
        self.tree = tree
        self.solver = Solver()
        self._memo: dict[tuple, object] = {}
        self.solves = 0

    def _network(self, loads: tuple, available: frozenset[NodeId]) -> TreeNetwork:
        return self.tree.with_loads(dict(loads), available=available)

    def solve(self, loads: tuple, available: frozenset[NodeId], budget: int):
        key = ("solve", loads, available, budget)
        if key not in self._memo:
            self.solves += 1
            placement = self.solver.solve(self._network(loads, available), budget)
            self._memo[key] = (
                placement.blue_nodes,
                placement.cost,
                placement.predicted_cost,
                placement.budget,
            )
        return self._memo[key]

    def sweep(self, loads: tuple, available: frozenset[NodeId], budgets: tuple[int, ...]):
        key = ("sweep", loads, available, budgets)
        if key not in self._memo:
            self.solves += 1
            placements = self.solver.sweep(self._network(loads, available), budgets)
            self._memo[key] = {
                budget: (placement.blue_nodes, placement.cost)
                for budget, placement in placements.items()
            }
        return self._memo[key]


def _names(nodes) -> list[str]:
    return sorted(map(repr, nodes))


def check_placements(oracle: ColdOracle, records: list[Record]) -> list[str]:
    """Check 1: every placement equals a cold solve at the recorded Λ."""
    errors: list[str] = []
    for index, record in enumerate(records):
        response = record.response
        if isinstance(response, (SolveResponse, AdmitResponse)):
            blue, cost, predicted, budget = oracle.solve(
                record.loads, record.available, record.request.budget
            )
            got = (response.blue_nodes, response.cost, response.predicted_cost, response.budget)
            if got != (blue, cost, predicted, budget):
                errors.append(
                    f"request {index}: service answered {_names(got[0])} cost {got[1]!r} "
                    f"predicted {got[2]!r} budget {got[3]}, cold solve {_names(blue)} "
                    f"cost {cost!r} predicted {predicted!r} budget {budget}"
                )
        elif isinstance(response, SweepResponse):
            request = record.request
            if not isinstance(request, SweepRequest):
                errors.append(f"request {index}: sweep response to {type(request).__name__}")
                continue
            expected = oracle.sweep(record.loads, record.available, request.budgets)
            got_sweep = {
                budget: (response.placements[budget], response.costs[budget])
                for budget in response.costs
            }
            if got_sweep != expected or set(response.placements) != set(expected):
                errors.append(f"request {index}: sweep differs from a cold sweep")
        elif isinstance(response, DrainResponse):
            errors.extend(
                f"request {index}: {message}"
                for message in _check_drain(oracle, record, response)
            )
    return errors


def _check_drain(oracle: ColdOracle, record: Record, response: DrainResponse) -> list[str]:
    """Replay the drain on a model of the capacity tracker, re-solving cold."""
    if not isinstance(record.request, DrainRequest) or record.before_drain is None:
        return [f"drain response to {type(record.request).__name__}"]
    residual, drained, tenants = record.before_drain
    residual = dict(residual)
    switch = record.request.switch
    drained = set(drained) | {switch}
    residual[switch] = 0
    displaced = [tenant for tenant in tenants.values() if switch in tenant.blue_nodes]
    for tenant in displaced:
        for node in tenant.blue_nodes - drained:
            residual[node] += 1
    moves = {item.tenant_id: item for item in response.displaced}
    failed = {item.tenant_id for item in response.failed}
    expected_ids = {tenant.tenant_id for tenant in displaced}
    if set(moves) & failed or set(moves) | failed != expected_ids:
        return [f"drain of {switch!r} displaced the wrong tenants"]
    errors = []
    for tenant in displaced:
        available = frozenset(node for node, slots in residual.items() if slots > 0)
        if tenant.tenant_id in failed:
            if available:
                errors.append(f"drain failed tenant {tenant.tenant_id} with capacity left")
            continue
        move = moves[tenant.tenant_id]
        blue, cost, _, _ = oracle.solve(tuple(tenant.loads.items()), available, tenant.budget)
        if (move.new_blue_nodes, move.new_cost) != (blue, cost) or (
            move.old_blue_nodes,
            move.old_cost,
        ) != (tenant.blue_nodes, tenant.cost):
            errors.append(f"drain re-placement of {tenant.tenant_id} differs from a cold solve")
        for node in blue:
            residual[node] -= 1
    return errors


def payload_checkpoints(records: list[Record]) -> list[str]:
    """Check 2: chained digest of every response payload, every 64 requests."""
    digest = hashlib.sha256()
    checkpoints = []
    for index, record in enumerate(records, 1):
        if record.response is None:
            payload: object = ("failed",)
        else:
            payload = response_payload(record.response)
        digest.update(repr(payload).encode())
        if index % CHECKPOINT == 0:
            checkpoints.append(digest.hexdigest()[:16])
    return checkpoints


def stat_totals(records: list[Record]) -> dict[str, int]:
    """How much each :data:`STAT_FIELDS` counter moved over the records."""
    return {
        field: sum(record.deltas[index] for record in records)
        for index, field in enumerate(STAT_FIELDS)
    }


def served_counts(records: list[Record]) -> dict[str, int]:
    """How the cached solves of a run were answered, by ``CacheStats``."""
    totals = stat_totals(records)
    return {
        "memo": totals["solution_hits"],
        "table": totals["table_hits"],
        "repair": totals["repairs"],
        "gather": totals["misses"] - totals["repairs"],
    }


def _implied_sources(deltas: tuple[int, ...]) -> set[str]:
    d_memo, d_table, d_misses, d_repairs, _ = deltas
    sources = set()
    if d_memo:
        sources.add("memo")
    if d_table:
        sources.add("table")
    if d_repairs:
        sources.add("repair")
    if d_misses > d_repairs:
        sources.add("gather")
    return sources


def reconcile_stats(records: list[Record]) -> list[str]:
    """Check 3: each response's ``cache_source`` matches its stats deltas."""
    errors = []
    for index, record in enumerate(records):
        response = record.response
        d_memo, d_table, d_misses, d_repairs, d_repair_hits = record.deltas
        solves = d_memo + d_table + d_misses
        sources = _implied_sources(record.deltas)
        if d_repairs > d_repair_hits or d_repairs > d_misses or min(record.deltas) < 0:
            ok = False
        elif isinstance(response, (SolveResponse, AdmitResponse)):
            ok = solves == 1 and sources == {response.cache_source}
        elif isinstance(response, SweepResponse):
            # The service reports the deepest of gather > table > memo.
            deepest = next(
                (layer for layer in ("gather", "table", "memo") if layer in sources), "memo"
            )
            budgets = getattr(record.request, "budgets", ())
            ok = solves == len(set(budgets)) and response.cache_source == deepest
        elif isinstance(response, DrainResponse):
            ok = len(response.displaced) <= solves <= len(response.displaced) + len(
                response.failed
            )
        elif isinstance(response, (ReleaseResponse, StatsResponse)) or response is None:
            ok = solves == 0 or response is None
        else:
            ok = False
        if not ok:
            kind = type(response).__name__
            errors.append(
                f"request {index}: {kind} with cache_source "
                f"{getattr(response, 'cache_source', None)!r} but CacheStats moved by "
                f"{dict(zip(STAT_FIELDS, record.deltas))}"
            )
    return errors
