"""Structure sharing between network clones and the per-structure flat plan.

``TreeNetwork.with_loads`` / ``with_available`` share one
:class:`~repro.core.tree.TreeStructure` (and with it the flat engines'
:class:`~repro.core.flat.FlatPlan`) instead of re-running the O(n)
constructor.  A derived network must stay indistinguishable from one
built from scratch: same validation errors, same fingerprints, and
bit-identical gathers, repairs and costs on both backend legs.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.cost import evaluate_cost
from repro.core.engine import gather, repair
from repro.core.flat import LazyNodeTables, cost_model_for, plan_for
from repro.core.solver import Solver
from repro.core.tree import TreeNetwork, fingerprint_loads
from repro.exceptions import AvailabilityError, InvalidLoadError, RepairError
from repro.testing import assert_tables_equal
from repro.topology.binary_tree import bt_network, switch_name

#: Backend legs; "compiled" computes with numpy when the C backend is absent.
ENGINES = ("flat", "compiled")


def _bt_parents(levels: int) -> dict:
    parents = {switch_name(0, 0): "d"}
    for level in range(1, levels):
        for index in range(2**level):
            parents[switch_name(level, index)] = switch_name(level - 1, index // 2)
    return parents


@pytest.fixture()
def parents() -> dict:
    return _bt_parents(5)  # BT(32): 31 switches


@pytest.fixture()
def rates(parents) -> dict:
    rng = np.random.default_rng(12)
    return {switch: float(rng.choice([0.5, 1.0, 2.0, 4.0])) for switch in parents}


def _random_loads(rng: np.random.Generator, parents: dict) -> dict:
    switches = sorted(parents)
    chosen = rng.choice(len(switches), size=12, replace=False)
    return {switches[int(i)]: int(rng.integers(0, 9)) for i in chosen}


def _random_available(rng: np.random.Generator, parents: dict) -> list:
    switches = sorted(parents)
    size = int(rng.integers(len(switches) // 2, len(switches) + 1))
    return [switches[int(i)] for i in rng.choice(len(switches), size=size, replace=False)]


def _fresh(parents: dict, rates: dict, tree: TreeNetwork) -> TreeNetwork:
    return TreeNetwork(parents, rates=rates, loads=tree.loads, available=tree.available)


class TestDigestGolden:
    """Pinned digests: any change to the hashed byte stream shows up here."""

    @pytest.fixture()
    def tree(self) -> TreeNetwork:
        return bt_network(
            8,
            leaf_loads=[2, 6, 5, 4],
            rates={"s1_0": 2.0, "s2_3": 0.5},
            available=["s0_0", "s1_0", "s2_1", "s2_2"],
        )

    def test_fingerprints(self, tree):
        assert fingerprint_loads(tree.loads) == "ff724f8d456e4dfe3d0a1e8422406f6f"
        assert fingerprint_loads({}) == "cae66941d9efbd404e4d88758ea67670"
        assert tree.loads_fingerprint() == "ff724f8d456e4dfe3d0a1e8422406f6f"
        assert tree.structure_fingerprint() == "56c96fcfd4c2d2f5164a72a555c39939"
        assert tree.availability_fingerprint() == (
            "b6bd552fd9177ec10fe977ee67b7ff00b62524a7c4f3a7afb352d300d3e6fb29"
        )
        assert tree.fingerprint() == "1736197c0583df963a026fc69ea02c2a"

    def test_derived_networks_keep_the_golden_digests(self, tree):
        rerated = bt_network(8).with_rates({"s1_0": 2.0, "s2_3": 0.5})
        assert rerated.structure_fingerprint() == "56c96fcfd4c2d2f5164a72a555c39939"
        rerated.fingerprint()  # memoized, so the clone below patches Λ by delta
        derived = rerated.with_loads(tree.loads, available=tree.available)
        assert derived.fingerprint() == "1736197c0583df963a026fc69ea02c2a"


class TestSharedStructure:
    def test_clones_share_structure_and_plan(self, parents, rates):
        tree = TreeNetwork(parents, rates=rates)
        plan = plan_for(tree)
        loaded = tree.with_loads({"s4_0": 3})
        restricted = loaded.with_available(["s0_0", "s4_0"])
        for clone in (loaded, restricted, restricted.with_loads({})):
            assert clone.structure is tree.structure
            assert plan_for(clone) is plan
        assert cost_model_for(loaded).plan is plan

    def test_with_rates_builds_a_new_plan(self, parents, rates):
        tree = TreeNetwork(parents, rates=rates, loads={"s4_1": 2})
        plan = plan_for(tree)
        rerated = tree.with_rates({"s4_1": 8.0})
        assert rerated.structure is not tree.structure
        new_plan = plan_for(rerated)
        assert new_plan is not plan
        position = plan.index["s4_1"]
        assert new_plan.rho[position] == 1.0 / 8.0 != plan.rho[position]

    def test_plan_is_read_only_and_matches_tree_queries(self, parents, rates):
        tree = TreeNetwork(parents, rates=rates)
        plan = plan_for(tree)
        with pytest.raises(ValueError):
            plan.path_rho[0, 0] = 1.0
        for position, node in enumerate(plan.order):
            prefix = tree.path_rho_prefix(node)
            assert plan.path_rho[: len(prefix), position].tolist() == prefix
            assert plan.depth[position] == tree.depth(node)
            children = [plan.order[p] for p in plan.child_concat[
                plan.child_offset[position] : plan.child_offset[position]
                + plan.num_children[position]
            ]]
            assert tuple(children) == tree.children(node)

    def test_chains_match_fresh_construction(self, parents, rates):
        rng = np.random.default_rng(2026)
        current = TreeNetwork(parents, rates=rates)
        current.fingerprint()  # memoize, so later clones patch digests
        for step in range(12):
            if step % 3 == 1:
                current = current.with_available(_random_available(rng, parents))
            elif step % 3 == 2:
                current = current.with_loads(
                    _random_loads(rng, parents), available=_random_available(rng, parents)
                )
            else:
                current = current.with_loads(_random_loads(rng, parents))
            fresh = _fresh(parents, rates, current)
            assert current.structure_fingerprint() == fresh.structure_fingerprint()
            assert current.loads_fingerprint() == fresh.loads_fingerprint()
            assert current.availability_fingerprint() == fresh.availability_fingerprint()
            assert current.fingerprint() == fresh.fingerprint()
            for engine in ENGINES:
                derived = gather(current, 5, engine=engine)
                cold = gather(fresh, 5, engine=engine)
                assert_tables_equal(cold, derived)
                solver = Solver(engine=engine)
                placed, expected = solver.solve(current, 5), solver.solve(fresh, 5)
                assert placed.blue_nodes == expected.blue_nodes
                assert placed.cost == expected.cost
                assert evaluate_cost(current, placed.blue_nodes) == expected.cost

    def test_repair_across_clones_matches_fresh_gather(self, parents, rates):
        rng = np.random.default_rng(7)
        tree = TreeNetwork(parents, rates=rates).with_loads(_random_loads(rng, parents))
        for engine in ENGINES:
            result = gather(tree, 4, engine=engine)
            switches = sorted(parents)
            for _ in range(6):
                flips = {switches[int(i)] for i in rng.choice(len(switches), size=2)}
                target = result.flat.tree.with_available(result.flat.tree.available ^ flips)
                try:
                    result = repair(result, target)
                except RepairError:  # the effective budget moved; start over cold
                    result = gather(target, 4, engine=engine)
                    continue
                assert_tables_equal(gather(_fresh(parents, rates, target), 4, engine=engine), result)


class TestWithLoadsValidation:
    """``with_loads`` raises exactly what the constructor raises."""

    @pytest.mark.parametrize(
        "loads",
        [
            {"no-such-switch": 1},
            {"s4_0": -1},
            {"s4_0": 1.5},
            {"s4_0": "many"},
            {"s4_3": 2, "s4_2": -4, "s2_0": 0.5},  # first bad load in switch order wins
        ],
    )
    def test_same_error_as_constructor(self, parents, loads):
        tree = TreeNetwork(parents)
        with pytest.raises(InvalidLoadError) as expected:
            TreeNetwork(parents, loads=loads)
        with pytest.raises(InvalidLoadError) as derived:
            tree.with_loads(loads)
        assert str(derived.value) == str(expected.value)

    def test_availability_checked_after_loads(self, parents):
        tree = TreeNetwork(parents)
        with pytest.raises(AvailabilityError) as derived:
            tree.with_loads({"s4_0": 1}, available=["ghost"])
        with pytest.raises(AvailabilityError) as expected:
            TreeNetwork(parents, loads={"s4_0": 1}, available=["ghost"])
        assert str(derived.value) == str(expected.value)
        with pytest.raises(InvalidLoadError):
            tree.with_loads({"s4_0": -1}, available=["ghost"])

    def test_loads_fully_replace_and_accept_integral_floats(self, parents):
        tree = TreeNetwork(parents, loads={"s4_0": 3})
        derived = tree.with_loads({"s4_1": 2.0})
        assert derived.loads == TreeNetwork(parents, loads={"s4_1": 2}).loads
        assert list(derived.loads) == list(tree.loads)  # switch order kept
        assert tree.load("s4_0") == 3  # the source network is untouched


class TestLazyTables:
    def test_cold_gather_builds_tables_on_demand(self, parents, rates):
        tree = TreeNetwork(parents, rates=rates, loads={"s4_0": 4, "s4_9": 2})
        for engine in ENGINES:
            result = gather(tree, 3, engine=engine)
            tables = result.tables
            assert isinstance(tables, LazyNodeTables)
            assert dict.__len__(tables) == 0
            assert result.optimal_cost == result.cost_for_budget(3)
            assert dict.__len__(tables) == 1  # only the root was built
            assert_tables_equal(gather(tree, 3, engine="reference"), result)

    def test_tables_are_read_only(self, parents):
        result = gather(TreeNetwork(parents, loads={"s4_0": 2}), 2)
        root = result.root
        with pytest.raises(TypeError):
            result.tables[root] = result.tables[root]
        with pytest.raises(TypeError):
            result.tables.update({})
        with pytest.raises(TypeError):
            del result.tables[root]


class TestConcurrentPlanUse:
    def test_threads_racing_on_a_fresh_structure(self, parents, rates):
        # The plan is built lazily on the shared structure; threads racing
        # on the first gather must all get answers equal to a serial run.
        workloads = [_random_loads(np.random.default_rng(seed), parents) for seed in range(8)]
        reference = TreeNetwork(parents, rates=rates)
        expected = [gather(reference.with_loads(w), 4).optimal_cost for w in workloads]
        tree = TreeNetwork(parents, rates=rates)  # no plan built yet
        results: dict[int, list[float]] = {}

        def worker(slot: int) -> None:
            results[slot] = [
                gather(tree.with_loads(w), 4, engine=ENGINES[slot % 2]).optimal_cost
                for w in workloads
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {slot: expected for slot in range(6)}
        assert plan_for(tree) is plan_for(tree.with_loads({}))
