"""Fleet state owned by the placement service.

The online model of Section 5.2 keeps exactly two pieces of mutable state:
the residual per-switch aggregation capacity ``a_t(s)`` and the set of
workloads currently holding switch slots.  :class:`FleetState` bundles both
behind churn operations — register, withdraw, drain — and keeps them
consistent: every mutation goes through the
:class:`~repro.online.capacity.CapacityTracker`, so the availability set
``Λ_t`` the service solves against is always the tracker's view.

The state layer is deliberately ignorant of *how* placements are computed;
it stores what the service decided (a :class:`TenantRecord` per admitted
workload) and enforces the capacity accounting.  Placement itself — and the
cache that makes it fast — lives in :mod:`repro.service.api`.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

from repro.core.tree import NodeId, TreeNetwork
from repro.exceptions import CapacityError, WorkloadError
from repro.online.capacity import CapacityTracker


@dataclass(frozen=True)
class TenantRecord:
    """One admitted workload and the placement it currently holds.

    Attributes
    ----------
    tenant_id:
        Caller-chosen identifier, unique among active tenants.
    loads:
        The workload's load function (switch -> number of servers).
    budget:
        The budget ``k`` the tenant was admitted with (as requested, before
        clamping to ``|Λ|``).
    exact_k:
        Budget semantics the placement was solved under.
    blue_nodes:
        The aggregation switches the tenant occupies.
    cost:
        Utilization complexity of the placement at admission time.
    predicted_cost:
        The gather-table optimum ``X_r(1, k)`` for the same solve.
    loads_fp:
        Digest of ``loads`` (:func:`repro.core.tree.fingerprint_loads`),
        computed once at admission and carried with the record so drain
        re-placement keys the cache without re-digesting the workload.
        ``None`` for records built by callers that never digested the
        loads (the service recomputes on demand).
    """

    tenant_id: str
    loads: dict[NodeId, int]
    budget: int
    exact_k: bool
    blue_nodes: frozenset[NodeId]
    cost: float
    predicted_cost: float
    loads_fp: str | None = None

    def state_dict(self) -> dict:
        """JSON-serializable view (switches stringified like trace events)."""
        return {
            "tenant_id": self.tenant_id,
            "loads": sorted(
                [str(node), int(load)] for node, load in self.loads.items()
            ),
            "budget": int(self.budget),
            "exact_k": bool(self.exact_k),
            "blue_nodes": sorted(str(node) for node in self.blue_nodes),
            "cost": float(self.cost),
            "predicted_cost": float(self.predicted_cost),
            "loads_fp": self.loads_fp,
        }

    @classmethod
    def from_state(
        cls, state: Mapping, node_index: Mapping[str, NodeId]
    ) -> "TenantRecord":
        """Rebuild a record from a :meth:`state_dict` payload.

        Raises
        ------
        WorkloadError
            If the payload references switches unknown to the network the
            index was built for.
        """

        def resolve(name: str) -> NodeId:
            try:
                return node_index[name]
            except KeyError as exc:
                raise WorkloadError(
                    f"tenant snapshot references unknown switch {name!r}"
                ) from exc

        return cls(
            tenant_id=state["tenant_id"],
            loads={resolve(name): int(load) for name, load in state["loads"]},
            budget=int(state["budget"]),
            exact_k=bool(state["exact_k"]),
            blue_nodes=frozenset(resolve(name) for name in state["blue_nodes"]),
            cost=float(state["cost"]),
            predicted_cost=float(state["predicted_cost"]),
            loads_fp=state.get("loads_fp"),
        )


class FleetState:
    """Mutable fleet: the shared network, residual capacity, active tenants.

    Parameters
    ----------
    tree:
        The shared network (topology and rates).  Per-tenant loads arrive
        with each request; the tree's own loads are ignored by the service.
    capacity:
        Per-switch aggregation capacity ``a(s)`` (scalar or mapping), as in
        :class:`~repro.online.capacity.CapacityTracker`.
    """

    def __init__(self, tree: TreeNetwork, capacity: int | Mapping[NodeId, int]) -> None:
        self._tree = tree
        self._tracker = CapacityTracker(tree, capacity)
        self._tenants: dict[str, TenantRecord] = {}
        self._admitted_total = 0
        self._released_total = 0

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    @property
    def tree(self) -> TreeNetwork:
        """The shared network (topology and rates)."""
        return self._tree

    @property
    def tracker(self) -> CapacityTracker:
        """The capacity tracker (read it; mutate via the state methods)."""
        return self._tracker

    @property
    def num_tenants(self) -> int:
        """Number of currently active tenants."""
        return len(self._tenants)

    @property
    def admitted_total(self) -> int:
        """Tenants admitted over the service lifetime (including departed)."""
        return self._admitted_total

    @property
    def released_total(self) -> int:
        """Tenants released over the service lifetime."""
        return self._released_total

    def tenants(self) -> dict[str, TenantRecord]:
        """A copy of the active-tenant registry."""
        return dict(self._tenants)

    def tenant(self, tenant_id: str) -> TenantRecord:
        """The record of an active tenant.

        Raises
        ------
        WorkloadError
            If no active tenant has this id.
        """
        try:
            return self._tenants[tenant_id]
        except KeyError as exc:
            raise WorkloadError(f"no active tenant with id {tenant_id!r}") from exc

    def available(self) -> frozenset[NodeId]:
        """The availability set ``Λ_t`` for the next placement.

        The tracker maintains the set incrementally, so repeated calls
        between mutations return the same cached frozenset object.
        """
        return self._tracker.available()

    def availability_fingerprint(self) -> str:
        """Digest of ``Λ_t``, maintained incrementally by the tracker."""
        return self._tracker.availability_fingerprint()

    def tenants_using(self, switch: NodeId) -> tuple[TenantRecord, ...]:
        """Active tenants whose placement occupies ``switch`` (arrival order)."""
        return tuple(
            record for record in self._tenants.values() if switch in record.blue_nodes
        )

    # ------------------------------------------------------------------ #
    # churn
    # ------------------------------------------------------------------ #

    def register(self, record: TenantRecord, new_admission: bool = True) -> None:
        """Admit a tenant: charge its switches and store the record.

        ``new_admission=False`` is the re-registration path used when a
        drain displaces a tenant onto a new placement: the tenant never
        left, so the lifetime ``admitted_total`` counter must not grow
        (keeping ``num_tenants == admitted_total - released_total``).

        Raises
        ------
        WorkloadError
            If the tenant id is already active.
        CapacityError
            If any chosen switch has no residual capacity (the tracker's
            check; the service never produces such a placement because it
            solves against ``Λ_t``).
        """
        if record.tenant_id in self._tenants:
            raise WorkloadError(f"tenant id {record.tenant_id!r} is already active")
        self._tracker.consume(record.blue_nodes)
        self._tenants[record.tenant_id] = record
        if new_admission:
            self._admitted_total += 1

    def withdraw(self, tenant_id: str) -> tuple[TenantRecord, frozenset[NodeId]]:
        """Release a tenant: restore its switch slots and drop the record.

        Returns the record and the switches whose capacity was actually
        restored (the tracker's own answer — drained switches stay out).
        """
        record = self.tenant(tenant_id)
        restored = self._tracker.release(record.blue_nodes)
        del self._tenants[tenant_id]
        self._released_total += 1
        return record, restored

    def note_forced_release(self) -> None:
        """Count a tenant evicted outside :meth:`withdraw`.

        A drain tears displaced tenants out of the registry before the
        service re-places them; when a re-placement fails, the tenant has
        effectively departed without a ``Release`` request.  Counting that
        departure here keeps the lifetime invariant
        ``num_tenants == admitted_total - released_total`` intact.
        """
        self._released_total += 1

    def drain(self, switch: NodeId) -> tuple[TenantRecord, ...]:
        """Take ``switch`` out of service and evict the tenants using it.

        The displaced tenants' *other* switch slots are released too (their
        whole placement is torn down); the caller re-places each displaced
        workload against the new ``Λ_t`` and re-registers it.  Returns the
        displaced records in arrival order.

        Raises
        ------
        CapacityError
            If ``switch`` is not a switch of the network.
        """
        if not self._tree.is_switch(switch):
            raise CapacityError(f"{switch!r} is not a switch of this network")
        displaced = self.tenants_using(switch)
        self._tracker.drain(switch)
        # Two phases: all (raise-capable) releases first, then the registry
        # deletions — an exception mid-release cannot leave some tenants
        # deleted and others still charged (atomicity rule).
        for record in displaced:
            self._tracker.release(record.blue_nodes)
        for record in displaced:
            del self._tenants[record.tenant_id]
        return displaced

    # ------------------------------------------------------------------ #
    # serialization hooks (fleet snapshots, :mod:`repro.service.persistence`)
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """JSON-serializable view of the whole mutable fleet.

        Bundles the capacity tracker's state, the lifetime counters, and
        the active-tenant registry (in admission order).  Everything is
        stringified the way trace events are, so the payload is portable
        across processes and node-id types.
        """
        return {
            "capacity": self._tracker.state_dict(),
            "counters": {
                "admitted_total": int(self._admitted_total),
                "released_total": int(self._released_total),
            },
            "tenants": [record.state_dict() for record in self._tenants.values()],
        }

    def load_state(self, state: Mapping, node_index: Mapping[str, NodeId]) -> None:
        """Restore a :meth:`state_dict` payload onto this fleet.

        The tracker state (residuals, drained set, Λ digest) is restored
        first, then the tenant registry is rebuilt record by record — the
        records' capacity charges are already part of the restored
        residuals, so registration does **not** re-consume capacity.
        """
        self._tracker.load_state(state["capacity"], node_index)
        counters = state.get("counters", {})
        # Rebuild the registry into a local first: a malformed tenant
        # payload raises before the counters or the registry are touched,
        # so a failed restore does not half-update the fleet (atomicity
        # rule; the tracker restore above is itself all-or-nothing).
        tenants: dict[str, TenantRecord] = {}
        for payload in state.get("tenants", []):
            record = TenantRecord.from_state(payload, node_index)
            if record.tenant_id in tenants:
                raise WorkloadError(
                    f"fleet snapshot lists tenant {record.tenant_id!r} twice"
                )
            tenants[record.tenant_id] = record
        self._admitted_total = int(counters.get("admitted_total", 0))
        self._released_total = int(counters.get("released_total", 0))
        self._tenants = tenants

    def residual_summary(self) -> dict[str, int | float]:
        """Aggregate capacity counters for the ``Stats`` endpoint.

        Read from the tracker's maintained Λ set and C-level sums over the
        residual map, without copying it.
        """
        tracker = self._tracker
        return {
            "active_tenants": len(self._tenants),
            "admitted_total": self._admitted_total,
            "released_total": self._released_total,
            "drained_switches": len(tracker.drained),
            "available_switches": tracker.num_available,
            "residual_slots": tracker.residual_slots(),
            "capacity_utilization": tracker.utilization_of_capacity(),
        }
