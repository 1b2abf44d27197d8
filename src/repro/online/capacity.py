"""Per-switch aggregation capacity tracking for the online multi-workload setting.

Section 5.2 of the paper extends the single-workload model: every switch
``s`` has an aggregation capacity ``a(s)`` bounding the number of workloads
for which ``s`` may serve as an aggregation switch.  Workloads arrive one by
one; when a workload is assigned a set of blue switches, the residual
capacity ``a_t(s)`` of each of those switches drops by one.  The set of
switches available to the next workload is ``Λ_t = {s : a_t(s) > 0}``.

:class:`CapacityTracker` encapsulates the residual capacities and produces
the availability set for each arrival.

Beyond the paper's arrival-only stream, the tracker also supports the churn
operations of the long-lived placement service (:mod:`repro.service`):
:meth:`CapacityTracker.release` returns a departing workload's switch slots
to the pool, and :meth:`CapacityTracker.drain` takes a switch out of
service permanently (e.g. for maintenance) so that neither new assignments
nor releases can ever make it available again.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.core.tree import IncrementalDigest, NodeId, TreeNetwork
from repro.exceptions import CapacityError


class CapacityTracker:
    """Track residual aggregation capacity ``a_t(s)`` across workload arrivals.

    Parameters
    ----------
    tree:
        The network whose switches are being tracked.
    capacity:
        Either a single integer (the same capacity for every switch, as in
        the paper's baseline where ``a(s) = 4``) or a mapping from switch to
        capacity.  Switches absent from the mapping get capacity 0.
    """

    def __init__(self, tree: TreeNetwork, capacity: int | Mapping[NodeId, int]) -> None:
        self._tree = tree
        if isinstance(capacity, Mapping):
            unknown = [s for s in capacity if not tree.is_switch(s)]
            if unknown:
                raise CapacityError(f"capacity given for unknown switches: {unknown!r}")
            initial = {s: int(capacity.get(s, 0)) for s in tree.switches}
        else:
            if int(capacity) < 0:
                raise CapacityError(f"capacity must be non-negative, got {capacity}")
            initial = {s: int(capacity) for s in tree.switches}
        negative = [s for s, value in initial.items() if value < 0]
        if negative:
            raise CapacityError(f"negative capacities for switches: {negative!r}")
        self._initial = dict(initial)
        self._residual = dict(initial)
        self._assignments: list[frozenset[NodeId]] = []
        self._drained: set[NodeId] = set()
        self._rebuild_availability()

    # ------------------------------------------------------------------ #
    # incrementally-maintained availability (set + digest)
    # ------------------------------------------------------------------ #

    def _rebuild_availability(self) -> None:
        """Recompute the Λ set and its digest from scratch (init / reset)."""
        self._available_set = {
            switch for switch, remaining in self._residual.items() if remaining > 0
        }
        self._available_digest = IncrementalDigest(
            repr(switch) for switch in self._available_set
        )
        self._available_cache: frozenset[NodeId] | None = None

    def _switch_entered(self, switch: NodeId) -> None:
        """A switch's residual went 0 -> positive: it (re)joins Λ."""
        self._available_set.add(switch)
        self._available_digest.add(repr(switch))
        self._available_cache = None

    def _switch_left(self, switch: NodeId) -> None:
        """A switch's residual hit 0 (or it drained): it leaves Λ."""
        self._available_set.discard(switch)
        self._available_digest.remove(repr(switch))
        self._available_cache = None

    @property
    def tree(self) -> TreeNetwork:
        """The network the tracker was created for."""
        return self._tree

    @property
    def num_assigned_workloads(self) -> int:
        """Number of workloads consumed so far."""
        return len(self._assignments)

    @property
    def assignments(self) -> tuple[frozenset[NodeId], ...]:
        """The blue sets consumed so far, in arrival order."""
        return tuple(self._assignments)

    def residual(self, switch: NodeId) -> int:
        """Residual capacity ``a_t(switch)`` before the next workload."""
        try:
            return self._residual[switch]
        except KeyError as exc:
            raise CapacityError(f"{switch!r} is not a switch of this network") from exc

    def residual_capacities(self) -> dict[NodeId, int]:
        """A copy of all residual capacities."""
        return dict(self._residual)

    def residual_slots(self) -> int:
        """Total residual capacity over all switches (drained ones hold 0)."""
        return sum(self._residual.values())

    @property
    def num_available(self) -> int:
        """``|Λ_t|``: the switches with residual capacity left."""
        return len(self._available_set)

    def available(self) -> frozenset[NodeId]:
        """The availability set ``Λ_t`` for the next workload.

        Maintained incrementally across consume/release/drain, so the
        returned frozenset is cached: as long as Λ does not change, every
        call returns the *same object* (callers may use an identity check
        to detect churn cheaply).
        """
        if self._available_cache is None:
            self._available_cache = frozenset(self._available_set)
        return self._available_cache

    def availability_fingerprint(self) -> str:
        """Digest of ``Λ_t``, equal to ``fingerprint_nodes(self.available())``.

        Maintained incrementally: admit/release/drain churn updates it in
        O(switches whose availability changed) rather than re-digesting
        the whole fleet (``tests/test_cost_kernels.py`` pins the
        incremental-vs-full equivalence across churn traces).
        """
        return self._available_digest.hexdigest()

    def available_tree(self) -> TreeNetwork:
        """The network restricted to the currently available switches.

        Convenience for running any placement strategy against the residual
        capacities: the returned tree shares topology, rates and loads but
        its Λ equals :meth:`available`.
        """
        return self._tree.with_available(self.available())

    def consume(self, blue_nodes: Iterable[NodeId]) -> frozenset[NodeId]:
        """Record that a workload was assigned the given aggregation switches.

        Raises
        ------
        CapacityError
            If any of the switches has no residual capacity left.
        """
        blue = frozenset(blue_nodes)
        exhausted = [s for s in blue if self._residual.get(s, 0) <= 0]
        unknown = [s for s in blue if s not in self._residual]
        if unknown:
            raise CapacityError(f"unknown switches in assignment: {unknown!r}")
        if exhausted:
            raise CapacityError(
                f"switches have no residual aggregation capacity: {sorted(map(repr, exhausted))}"
            )
        for switch in blue:
            self._residual[switch] -= 1
            if self._residual[switch] == 0:
                self._switch_left(switch)
        self._assignments.append(blue)
        return blue

    @property
    def drained(self) -> frozenset[NodeId]:
        """Switches permanently removed from service via :meth:`drain`."""
        return frozenset(self._drained)

    def release(self, blue_nodes: Iterable[NodeId]) -> frozenset[NodeId]:
        """Return a departed workload's switch slots to the capacity pool.

        Drained switches keep residual capacity 0 — the tenant leaves, but
        the switch stays out of service.  Returns the switches whose
        capacity was actually restored.

        Raises
        ------
        CapacityError
            If a switch is unknown, or restoring a slot would exceed the
            switch's initial capacity (releasing something that was never
            consumed).
        """
        blue = frozenset(blue_nodes)
        unknown = [s for s in blue if s not in self._residual]
        if unknown:
            raise CapacityError(f"unknown switches in release: {unknown!r}")
        overfull = [
            s
            for s in blue
            if s not in self._drained and self._residual[s] + 1 > self._initial[s]
        ]
        if overfull:
            raise CapacityError(
                "release would exceed initial capacity for switches: "
                f"{sorted(map(repr, overfull))}"
            )
        restored = blue - self._drained
        for switch in restored:
            self._residual[switch] += 1
            if self._residual[switch] == 1:
                self._switch_entered(switch)
        return restored

    def drain(self, switch: NodeId) -> int:
        """Take a switch out of service permanently.

        Sets the residual capacity to 0 and remembers the switch as drained,
        so later :meth:`release` calls cannot resurrect it.  Idempotent.
        Returns the number of capacity slots forfeited (residual capacity at
        drain time; already-consumed slots are accounted by the caller when
        the displaced workloads are released).

        Raises
        ------
        CapacityError
            If ``switch`` is not a switch of this network.
        """
        if switch not in self._residual:
            raise CapacityError(f"{switch!r} is not a switch of this network")
        forfeited = self._residual[switch]
        self._residual[switch] = 0
        self._drained.add(switch)
        if forfeited > 0:
            self._switch_left(switch)
        return forfeited

    def reset(self) -> None:
        """Restore the initial capacities and forget assignments and drains."""
        self._residual = dict(self._initial)
        self._assignments = []
        self._drained = set()
        self._rebuild_availability()

    # ------------------------------------------------------------------ #
    # serialization hooks (fleet snapshots, :mod:`repro.service.persistence`)
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """JSON-serializable view of the tracker's mutable state.

        Switches are stringified (``str(switch)``, the same convention as
        trace events) so the payload survives JSON round-trips regardless
        of the node-id type; :meth:`load_state` resolves the names back
        against a caller-supplied index.  Captures everything
        :meth:`load_state` needs to resume bit-identically: initial and
        residual capacities, the drained set, and the consumed blue sets
        in arrival order.
        """
        return {
            "initial": {str(s): int(v) for s, v in self._initial.items()},
            "residual": {str(s): int(v) for s, v in self._residual.items()},
            "drained": sorted(str(s) for s in self._drained),
            "assignments": [
                sorted(str(s) for s in blue) for blue in self._assignments
            ],
        }

    def load_state(self, state: Mapping, node_index: Mapping[str, NodeId]) -> None:
        """Restore a :meth:`state_dict` payload onto this tracker.

        ``node_index`` maps ``str(switch)`` back to node ids (see
        :func:`repro.service.events.node_index`).  The incremental Λ digest
        is rebuilt from the restored residuals; the additive multiset
        construction guarantees it equals the digest an uninterrupted
        tracker would carry after the same churn.

        Raises
        ------
        CapacityError
            If the payload references switches unknown to this network.
        """

        def resolve(name: str) -> NodeId:
            try:
                return node_index[name]
            except KeyError as exc:
                raise CapacityError(
                    f"capacity snapshot references unknown switch {name!r}"
                ) from exc

        # Resolve everything into locals first: a payload referencing an
        # unknown switch raises before any field is touched, so a failed
        # restore leaves the tracker exactly as it was (atomicity rule).
        initial = {resolve(n): int(v) for n, v in state["initial"].items()}
        residual = {resolve(n): int(v) for n, v in state["residual"].items()}
        drained = {resolve(n) for n in state.get("drained", [])}
        assignments = [
            frozenset(resolve(n) for n in blue)
            for blue in state.get("assignments", [])
        ]
        self._initial = initial
        self._residual = residual
        self._drained = drained
        self._assignments = assignments
        self._rebuild_availability()

    def utilization_of_capacity(self) -> float:
        """Fraction of the in-service aggregation capacity consumed so far.

        Drained switches are excluded from both numerator and denominator:
        their forfeited slots are not "consumed", they no longer exist.
        """
        retired = sorted(self._drained, key=repr)  # usually a handful of switches
        total = sum(self._initial.values()) - sum(self._initial.get(s, 0) for s in retired)
        if total == 0:
            return 0.0
        residual = sum(self._residual.values()) - sum(self._residual.get(s, 0) for s in retired)
        return (total - residual) / total
