"""The three benchmark workloads: set-up and a seeded request stream each.

Every workload owns a ``numpy`` generator derived from ``--seed`` and a
per-workload salt, so one seed always gives the same requests.  Requests
are materialised one at a time by :meth:`Workload.next_request`, each with
a fresh loads mapping built from an immutable tuple, so the service never
sees the same mapping object twice.  The tuple the mapping came from is
kept in :attr:`Workload.last_loads` for the correctness gate.

Why these three (the reasons are repeated in ``BENCHMARK.json``):

``cold-solve``
    BT(256), k=16, every solve carries a never-seen load vector: the
    paper's offline solve and the cache-miss path, where the gather engine
    does most of the work and cache repair and journal do none.
``warm-read``
    BT(1024), read-only solve/sweep/stats over 8 recurring workloads with
    the cache filled in set-up: the service's hot path, where every
    request is a memo hit and time goes to load handling.
``steady-churn``
    BT(256), capacity 4, journal attached, 8 tenants pre-filled and kept
    at 8 (admit when below, else release), reads at the default weights
    over 16 recurring workloads and two drains at fixed positions: writes
    beside reads, the workload where delta repair answers most misses.
    Unlike the stock churn generator its mix does not drift with run
    length.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path

import numpy as np

from repro.core.tree import NodeId, TreeNetwork
from repro.service.api import (
    AdmitRequest,
    DrainRequest,
    DrainResponse,
    PlacementService,
    ReleaseRequest,
    Request,
    Response,
    SolveRequest,
    StatsRequest,
    SweepRequest,
)
from repro.service.persistence import Journal
from repro.topology.binary_tree import bt_network

BUDGET = 16
SWEEP_BUDGETS = (1, 2, 4, 8, 16)
POOL_SIZE = 8
#: Read weights of the default churn profile: solve, sweep, stats.
READ_WEIGHTS = (0.45, 0.08, 0.05)
#: Admit plus release weight of the default churn profile.
WRITE_WEIGHT = 0.22 + 0.17
_READ_P = np.asarray(READ_WEIGHTS) / sum(READ_WEIGHTS)
_CHURN_P = np.asarray((*READ_WEIGHTS, WRITE_WEIGHT)) / sum((*READ_WEIGHTS, WRITE_WEIGHT))

# Leaf loads: half uniform on [4, 6], half a truncated power law on [1, 63]
# with mean 5 (the paper's two workload families).  The two alternate
# rather than being drawn by coin flip, so every seed has the same mix.
_POWER_SUPPORT = np.arange(1, 64)
_POWER_P = _POWER_SUPPORT ** -1.62643
_POWER_P = _POWER_P / _POWER_P.sum()

Loads = tuple[tuple[NodeId, int], ...]


def _rng(seed: int, salt: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(salt.encode())])


def sample_loads(rng: np.random.Generator, leaves: tuple[NodeId, ...], power_law: bool) -> Loads:
    """One leaf-load vector, uniform on [4, 6] or power law on [1, 63]."""
    if power_law:
        values = rng.choice(_POWER_SUPPORT, size=len(leaves), p=_POWER_P)
    else:
        values = rng.integers(4, 7, size=len(leaves))
    return tuple(zip(leaves, values.tolist()))


class Workload:
    """Base: a tree, a service factory and a seeded request stream."""

    name = ""
    tree_size = 256
    capacity = 4
    #: Requests served in each phase of a traced run (fixed, so the
    #: ``served.*`` counts repeat exactly across runs of a seed).
    trace_requests = 0
    #: Read-only requests served in set-up after the pre-fill.
    warmup_requests = 0

    def __init__(self, seed: int, workdir: Path, tree: TreeNetwork | None = None) -> None:
        self.seed = int(seed)
        self.workdir = workdir
        self.tree = tree if tree is not None else bt_network(self.tree_size)
        self.leaves = self.tree.leaves()
        self.journal: Journal | None = None
        self.last_loads: Loads = ()
        self._rng = _rng(seed, self.name)

    def make_service(self) -> PlacementService:
        return PlacementService(self.tree, self.capacity)

    def prefill(self, service: PlacementService) -> None:
        """State the timed stream starts from (cache fill, tenants)."""

    def warmup(self, service: PlacementService) -> None:
        """Serve read-only requests from a separate stream of the seed."""
        stream = self._rng
        self._rng = _rng(self.seed, self.name + "/warmup")
        try:
            for _ in range(self.warmup_requests):
                service.submit(self.read_only_request())
        finally:
            self._rng = stream

    def next_request(self) -> Request:
        raise NotImplementedError

    def read_only_request(self) -> Request:
        return self.next_request()

    def observe(self, request: Request, response: Response | None) -> None:
        """Let the stream react to an outcome (``None`` = the request failed)."""

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()
            self.journal = None


class ColdSolve(Workload):
    name = "cold-solve"
    tree_size = 256
    trace_requests = 400
    warmup_requests = 3

    def __init__(self, seed: int, workdir: Path, tree: TreeNetwork | None = None) -> None:
        super().__init__(seed, workdir, tree)
        self._count = 0

    def next_request(self) -> Request:
        self._count += 1
        self.last_loads = sample_loads(self._rng, self.leaves, power_law=self._count % 2 == 0)
        return SolveRequest(loads=dict(self.last_loads), budget=BUDGET)


class _PoolReads(Workload):
    """Reads at the default weights over a pool of recurring workloads."""

    pool_size = POOL_SIZE

    def __init__(self, seed: int, workdir: Path, tree: TreeNetwork | None = None) -> None:
        super().__init__(seed, workdir, tree)
        pool_rng = _rng(seed, self.name + "/pool")
        self.pool = [
            sample_loads(pool_rng, self.leaves, power_law=index % 2 == 1)
            for index in range(self.pool_size)
        ]

    def read_request(self, kind: int) -> Request:
        if kind == 2:
            self.last_loads = ()
            return StatsRequest()
        self.last_loads = self.pool[int(self._rng.integers(len(self.pool)))]
        if kind == 0:
            return SolveRequest(loads=dict(self.last_loads), budget=BUDGET)
        return SweepRequest(loads=dict(self.last_loads), budgets=SWEEP_BUDGETS)

    def read_only_request(self) -> Request:
        return self.read_request(int(self._rng.choice(3, p=_READ_P)))


class WarmRead(_PoolReads):
    name = "warm-read"
    tree_size = 1024
    trace_requests = 4000
    warmup_requests = 200

    def prefill(self, service: PlacementService) -> None:
        for loads in self.pool:
            service.submit(SolveRequest(loads=dict(loads), budget=BUDGET))
            service.submit(SweepRequest(loads=dict(loads), budgets=SWEEP_BUDGETS))

    def next_request(self) -> Request:
        return self.read_only_request()


class SteadyChurn(_PoolReads):
    name = "steady-churn"
    tree_size = 256
    trace_requests = 1200
    warmup_requests = 20
    population = 8
    # With 8 workloads, memo hits, releases and stats are close to half of
    # the requests, and the median latency jumps between cheap and
    # expensive requests from one seed to the next.
    pool_size = 16
    #: Stream positions (0-based) of the two drains.
    drain_positions = (150, 450)

    def __init__(self, seed: int, workdir: Path, tree: TreeNetwork | None = None) -> None:
        super().__init__(seed, workdir, tree)
        self.admitted: list[str] = []
        self.position = 0
        self._next_tenant = 0
        self._service: PlacementService | None = None

    def make_service(self) -> PlacementService:
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / f"journal-{os.getpid()}-{id(self)}.jsonl"
        path.unlink(missing_ok=True)
        self.journal = Journal(path, tree=self.tree)
        self._service = PlacementService(self.tree, self.capacity, journal=self.journal)
        return self._service

    def close(self) -> None:
        path = self.journal.path if self.journal is not None else None
        super().close()
        if path is not None:
            path.unlink(missing_ok=True)

    def _admit(self) -> Request:
        tenant = f"t{self._next_tenant}"
        self._next_tenant += 1
        self.last_loads = self.pool[int(self._rng.integers(len(self.pool)))]
        return AdmitRequest(tenant_id=tenant, loads=dict(self.last_loads), budget=BUDGET)

    def prefill(self, service: PlacementService) -> None:
        while len(self.admitted) < self.population:
            request = self._admit()
            self.observe(request, service.submit(request))

    def next_request(self) -> Request:
        position = self.position
        self.position += 1
        if position in self.drain_positions and self._service is not None:
            # Drain a switch some tenant occupies, so the drain displaces
            # and re-places tenants rather than being a no-op.
            record = self._service.state.tenant(
                self.admitted[int(self._rng.integers(len(self.admitted)))]
            )
            blue = sorted(record.blue_nodes, key=repr)
            self.last_loads = ()
            return DrainRequest(switch=blue[int(self._rng.integers(len(blue)))])
        kind = int(self._rng.choice(4, p=_CHURN_P))
        if kind < 3:
            return self.read_request(kind)
        if len(self.admitted) < self.population:
            return self._admit()
        self.last_loads = ()
        victim = self.admitted[int(self._rng.integers(len(self.admitted)))]
        return ReleaseRequest(tenant_id=victim)

    def observe(self, request: Request, response: Response | None) -> None:
        if response is None:
            return
        if isinstance(request, AdmitRequest):
            self.admitted.append(request.tenant_id)
        elif isinstance(request, ReleaseRequest):
            self.admitted.remove(request.tenant_id)
        elif isinstance(response, DrainResponse):
            for failure in response.failed:
                self.admitted.remove(failure.tenant_id)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ColdSolve, WarmRead, SteadyChurn)
}
