"""Flat tensor view of a gather result, shared by the batched kernels.

The flat gather engine of :mod:`repro.core.engine` computes the SOAR dynamic
program directly on contiguous ``(l, i, node)`` tensors; the level-batched
colour kernel of :mod:`repro.core.color` traces placements out of the very
same layout.  Two objects make that layout explicit:

:class:`FlatPlan`
    Everything about the layout that depends on the *topology and rates*
    alone: node order and index, depths, parents, per-link ``rho``, the
    path-cost table ``rho(v, A^l_v)``, ragged child lists, breadcrumb
    slots, level slabs, the per-level and per-stage index arrays of the
    level-batched gather, and the post-order permutation of the cost
    kernel.  One plan is built per tree structure, on first use
    (:func:`plan_for`), and stored on the
    :class:`~repro.core.tree.TreeStructure` that every
    ``with_loads`` / ``with_available`` clone shares — so the per-request
    work of a gather is the load and Λ vectors plus the kernels, not the
    O(n) Python bookkeeping.  Plans are immutable (their arrays are
    read-only).
:class:`FlatTables`
    One gather's tensors plus the two per-instance vectors (loads and Λ in
    flat order) on top of the plan.

Results produced by the flat engine carry their :class:`FlatTables`
zero-copy and hand out per-node :class:`~repro.core.gather.NodeTables`
lazily (:class:`LazyNodeTables`).  Results produced by the per-node
reference engine do not; :func:`flat_tables_for` stacks them into the flat
layout on first use and caches the outcome on the result, so the batched
colour kernel works identically on both engines' tables — which is exactly
what the differential tests exploit.

The cost phase shares the plan too: :class:`FlatCostModel` is a plan plus
a load vector, which the flat cost kernel of :mod:`repro.core.cost`
batches Eq. (1) over.  Loads and Λ are call-time inputs, so one model
serves every same-structure workload network, and a
:class:`~repro.core.solver.GatherTable` derives its model from the flat
tables it already carries (:func:`cost_model_for`).

Node order
----------
Nodes are laid out deepest level first (stable within a level): every
level is then one contiguous slab, recorded in ``level_slices``, so both
the bottom-up gather and the top-down colour trace touch contiguous runs.
The children of all nodes are concatenated into one ragged array
(``child_concat`` + ``child_offset``), keeping the per-stage scatter of the
colour traceback a single fancy-indexed gather even on trees with wildly
varying fan-out.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.core.gather import GatherResult, NodeTables
from repro.core.tree import NodeId, TreeNetwork
from repro.exceptions import RepairError


class GatherStage(NamedTuple):
    """Index arrays of one convolution stage ``m >= 2`` of a gather level:
    the level's nodes with an ``m``-th child (``active`` indexes the
    level's ``group``, ``nodes`` are flat positions), those children, and
    the breadcrumb slots the stage writes."""

    active: np.ndarray
    nodes: np.ndarray
    child: np.ndarray
    slots: np.ndarray


class GatherLevel(NamedTuple):
    """Same-depth internal nodes (``group``, flat positions ascending) with
    ``rows = depth + 1``, ``upward[l] = rho(v, A^l_v)``, their first
    children, and the index arrays of every later convolution stage."""

    group: np.ndarray
    rows: int
    upward: np.ndarray
    first_child: np.ndarray
    stages: tuple[GatherStage, ...]


@dataclass(frozen=True, eq=False)
class FlatPlan:
    """The structure-only half of the flat layout, built once per structure.

    Attributes
    ----------
    order, index:
        Nodes in flat order (deepest level first, stable within a level)
        and its inverse; position ``p`` of every array refers to
        ``order[p]``.
    depth, parent, rho:
        Per-node depth, parent position (``-1`` for the root, whose parent
        is the destination), and ``rho((v, p(v)))``.
    path_rho:
        ``path_rho[l, p] = rho(v, A^l_v)`` for ``l <= D(v)`` (0 beyond),
        shape ``(height + 1, n)``, accumulated in the same order as
        :meth:`~repro.core.tree.TreeNetwork.path_rho_prefix`.
    num_children, child_concat, child_offset:
        Ragged child lists: the children of position ``p`` are
        ``child_concat[child_offset[p] : child_offset[p] + num_children[p]]``
        (as flat positions), in the tree's child order.
    stage_offset, total_stages:
        A node with ``C`` children owns breadcrumb slots
        ``stage_offset[p] .. + C - 2`` of the split tensors.
    leaf, leaves:
        Leaf mask and the leaf positions.
    level_slices:
        ``level_slices[d - 1]`` is the ``(start, stop)`` slab of the nodes
        at depth ``d`` (the root's level is first).
    postorder, postorder_nodes:
        ``order[postorder[i]]`` is ``tree.switches[i]`` (also kept as
        ``postorder_nodes``), so the cost kernel can reproduce the
        reference summation order bit for bit.
    levels:
        The internal nodes level by level, deepest first, as
        :class:`GatherLevel` records (built on first use).
    """

    order: tuple[NodeId, ...]
    index: dict[NodeId, int]
    height: int
    depth: np.ndarray
    parent: np.ndarray
    rho: np.ndarray
    path_rho: np.ndarray
    num_children: np.ndarray
    child_concat: np.ndarray
    child_offset: np.ndarray
    stage_offset: np.ndarray
    total_stages: int
    leaf: np.ndarray
    leaves: np.ndarray
    level_slices: tuple[tuple[int, int], ...]
    postorder: np.ndarray
    postorder_nodes: tuple[NodeId, ...]

    @classmethod
    def build(cls, tree: TreeNetwork) -> "FlatPlan":
        """Derive the plan of ``tree``'s structure (loads and Λ are ignored)."""
        order = tuple(flat_order(tree))
        n, height = len(order), tree.height
        index = {node: position for position, node in enumerate(order)}
        depth = np.fromiter(map(tree.depth, order), dtype=np.int64, count=n)
        rho = np.fromiter(map(tree.rho, order), dtype=np.float64, count=n)
        parent = np.fromiter(
            (index.get(tree.parent(v), -1) for v in order), dtype=np.int64, count=n
        )
        num_children = np.fromiter(map(tree.num_children, order), dtype=np.int64, count=n)
        child_concat = np.fromiter(
            (index[c] for v in order for c in tree.children(v)),
            dtype=np.int64,
            count=int(num_children.sum()),
        )
        stage_counts = np.maximum(num_children - 1, 0)

        # P[l, v] = rho(v, A^l_v), one ancestor step per level.
        path_rho = np.zeros((height + 1, n), dtype=np.float64)
        ancestor = np.arange(n)
        for level in range(1, height + 1):
            live = depth >= level
            path_rho[level, live] = path_rho[level - 1, live] + rho[ancestor[live]]
            ancestor[live] = parent[ancestor[live]]

        # bounds[d] = number of nodes at depth >= d (depth is sorted descending).
        bounds = np.searchsorted(-depth, -np.arange(height + 2), side="right")
        plan = cls(
            order=order,
            index=index,
            height=height,
            depth=depth,
            parent=parent,
            rho=rho,
            path_rho=path_rho,
            num_children=num_children,
            child_concat=child_concat,
            child_offset=np.concatenate(([0], np.cumsum(num_children)[:-1])).astype(np.int64),
            stage_offset=np.concatenate(([0], np.cumsum(stage_counts)[:-1])).astype(np.int64),
            total_stages=int(stage_counts.sum()),
            leaf=num_children == 0,
            leaves=np.nonzero(num_children == 0)[0],
            level_slices=tuple((int(bounds[d + 1]), int(bounds[d])) for d in range(1, height + 1)),
            postorder=np.fromiter(map(index.__getitem__, tree.switches), dtype=np.int64, count=n),
            postorder_nodes=tree.switches,
        )
        for value in vars(plan).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return plan

    def level(self, group: np.ndarray, rows: int) -> GatherLevel:
        """The :class:`GatherLevel` of ``group``: internal nodes at depth ``rows - 1``."""
        counts = self.num_children[group]
        stages = []
        for stage in range(2, int(counts.max()) + 1):
            active = np.nonzero(counts >= stage)[0]
            nodes = group[active]
            stages.append(
                GatherStage(
                    active=active,
                    nodes=nodes,
                    child=self.child_concat[self.child_offset[nodes] + (stage - 1)],
                    slots=self.stage_offset[nodes] + (stage - 2),
                )
            )
        return GatherLevel(
            group=group,
            rows=rows,
            upward=self.path_rho[:rows, group],
            first_child=self.child_concat[self.child_offset[group]],
            stages=tuple(stages),
        )

    @cached_property
    def levels(self) -> tuple[GatherLevel, ...]:
        groups = [(np.nonzero(~self.leaf & (self.depth == d))[0], d) for d in range(self.height, 0, -1)]
        return tuple(self.level(group, d + 1) for group, d in groups if group.size)

    def load_vector(self, loads: Mapping[NodeId, int]) -> np.ndarray:
        """A flat-order int64 load array for a load mapping.

        Mirrors the reference kernels' ``loads.get(switch, 0)`` contract:
        switches absent from the mapping carry load 0 and keys that are
        not switches of the network are ignored.
        """
        vector = np.zeros(len(self.order), dtype=np.int64)
        index = self.index
        for node, value in loads.items():
            position = index.get(node)
            if position is not None:
                vector[position] = int(value)
        return vector

    def tree_loads(self, tree: TreeNetwork) -> np.ndarray:
        """``tree``'s full load function as a flat-order int64 array."""
        loads = tree.loads
        return np.fromiter(map(loads.__getitem__, self.order), dtype=np.int64, count=len(self.order))

    def avail_vector(self, available: frozenset[NodeId]) -> np.ndarray:
        """Λ as a flat-order boolean mask."""
        return np.fromiter(map(available.__contains__, self.order), dtype=bool, count=len(self.order))


def plan_for(tree: TreeNetwork) -> FlatPlan:
    """The :class:`FlatPlan` of ``tree``'s structure, built on first use.

    Stored on the shared :class:`~repro.core.tree.TreeStructure`, so every
    clone derived by ``with_loads`` / ``with_available`` reuses it.  Two
    threads racing on the first build both produce equal plans; either
    may win the store.
    """
    structure = tree.structure
    plan = structure.plan
    if plan is None:
        plan = structure.plan = FlatPlan.build(tree)
    return plan


@dataclass
class FlatTables:
    """Flat ``(l, i, node)`` tensors of one gather on top of its plan.

    Attributes
    ----------
    tree:
        The instance the tables were gathered for — the network whose
        loads and Λ the cached ``load`` / ``avail`` arrays reflect.
        Consumers tracing for a *different* (same-structure) network must
        re-derive those two arrays from their own tree (the colour kernel
        does; see :func:`repro.core.color.soar_color_batched`).
    plan:
        The structure's :class:`FlatPlan` (node order, index, child lists,
        breadcrumb slots, level slabs).
    load, avail:
        The gathered instance's loads (int64) and Λ mask in flat order.
    y_blue, y_red:
        The final-stage colour-decision tables, shape
        ``(height + 1, k + 1, n)``; ``X = min(y_red, y_blue)``.  Rows
        ``l > depth`` of a node are unspecified (never read: the traceback
        parameter satisfies ``l <= depth``).
    splits_blue, splits_red:
        Breadcrumb tensors of shape ``(height + 1, k + 1, total_stages)``.
    """

    tree: TreeNetwork
    plan: FlatPlan
    load: np.ndarray
    avail: np.ndarray
    y_blue: np.ndarray
    y_red: np.ndarray
    splits_blue: np.ndarray
    splits_red: np.ndarray
    #: Lazily-derived :class:`FlatCostModel` sharing this layout (see
    #: :func:`cost_model_for`); never built by the engines themselves.
    cost_model: "FlatCostModel | None" = field(default=None, repr=False, compare=False)

    def node_tables(self, position: int) -> NodeTables:
        """The per-node slab views of one flat position, as :class:`NodeTables`.

        ``y_blue`` / ``y_red`` and the breadcrumb slices are zero-copy views
        into the flat tensors; ``x`` and ``choice`` are derived per node
        (``min(y_red, y_blue)`` and the strict ``y_blue < y_red``), which
        is bit-identical to what the gather computed: every valid ``x``
        entry was *written* as exactly that minimum.
        """
        rows = int(self.plan.depth[position]) + 1
        y_blue = self.y_blue[:rows, :, position]
        y_red = self.y_red[:rows, :, position]
        stages = max(int(self.plan.num_children[position]) - 1, 0)
        base = int(self.plan.stage_offset[position])
        return NodeTables(
            x=np.minimum(y_red, y_blue),
            y_blue=y_blue,
            y_red=y_red,
            choice=np.less(y_blue, y_red).view(np.uint8),
            splits_blue=[
                self.splits_blue[:rows, :, base + stage] for stage in range(stages)
            ],
            splits_red=[
                self.splits_red[:rows, :, base + stage] for stage in range(stages)
            ],
        )


@dataclass
class FlatCostModel:
    """A :class:`FlatPlan` plus the load vector the cost kernel evaluates.

    The plan captures what Eq. (1) needs about the *topology and rates*
    (flat order, parent pointers, per-link ``rho``, level slabs, the
    post-order permutation); loads and the blue set are inputs of every
    evaluation.  One model therefore serves every workload network
    sharing the structure — the online scheduler builds one per shared
    fleet network and feeds per-arrival load mappings through it.

    Attributes
    ----------
    tree:
        The network the model was built from.  When an evaluation passes a
        *different* (same-structure, same-rates) tree, its loads are
        re-derived instead of trusting the cached ``load`` array — the
        same foreign-tree contract the batched colour kernel follows.
    plan:
        The structure's :class:`FlatPlan`.
    load:
        The model tree's own loads in flat order (used only when the
        evaluation passes neither ``loads`` nor a foreign tree).
    """

    tree: TreeNetwork
    plan: FlatPlan
    load: np.ndarray

    def loads_for(self, tree: TreeNetwork, loads: Mapping[NodeId, int] | None) -> np.ndarray:
        """Resolve the effective flat-order load array of one evaluation."""
        if loads is not None:
            return self.plan.load_vector(loads)
        if tree is self.tree:
            return self.load
        return self.plan.tree_loads(tree)


def cost_model_for(tree: TreeNetwork, flat: FlatTables | None = None) -> FlatCostModel:
    """Build (or fetch) the :class:`FlatCostModel` of a network.

    When ``flat`` tables gathered for the *same* tree are given, the model
    reuses their load array and is cached on them, so a gather artifact
    pays the construction once across every placement it traces; bare
    trees get a fresh model over the shared plan (callers evaluating many
    placements over one network should hold on to it).
    """
    if flat is not None and flat.tree is tree:
        if flat.cost_model is None:
            flat.cost_model = FlatCostModel(tree=tree, plan=flat.plan, load=flat.load)
        return flat.cost_model
    plan = plan_for(tree)
    return FlatCostModel(tree=tree, plan=plan, load=plan.tree_loads(tree))


def flat_order(tree: TreeNetwork) -> list[NodeId]:
    """The canonical flat node order: deepest level first, stable within."""
    return sorted(tree.switches, key=tree.depth, reverse=True)


def _stack_result(tree: TreeNetwork, result: GatherResult) -> FlatTables:
    """Stack per-node :class:`NodeTables` into the flat layout.

    Used for results of the per-node reference engine (the flat engine
    attaches its tensors directly).  Rows beyond a node's depth are left
    uninitialized, exactly as the flat engine leaves them.
    """
    plan = plan_for(tree)
    n = len(plan.order)
    height = plan.height
    width = result.budget + 1

    y_blue = np.empty((height + 1, width, n), dtype=np.float64)
    y_red = np.empty((height + 1, width, n), dtype=np.float64)
    splits_blue = np.zeros((height + 1, width, plan.total_stages), dtype=np.int32)
    splits_red = np.zeros((height + 1, width, plan.total_stages), dtype=np.int32)

    for position, node in enumerate(plan.order):
        tables = result.tables[node]
        rows = int(plan.depth[position]) + 1
        y_blue[:rows, :, position] = tables.y_blue
        y_red[:rows, :, position] = tables.y_red
        base = int(plan.stage_offset[position])
        for stage, split in enumerate(tables.splits_blue):
            splits_blue[:rows, :, base + stage] = split
        for stage, split in enumerate(tables.splits_red):
            splits_red[:rows, :, base + stage] = split

    return FlatTables(
        tree=tree,
        plan=plan,
        load=plan.tree_loads(tree),
        avail=plan.avail_vector(tree.available),
        y_blue=y_blue,
        y_red=y_red,
        splits_blue=splits_blue,
        splits_red=splits_red,
    )


def flat_tables_for(tree: TreeNetwork, result: GatherResult) -> FlatTables:
    """The :class:`FlatTables` of ``result``, building and caching if needed.

    Flat-engine results carry theirs from birth; reference-engine results
    pay one per-node stacking pass on first use, memoized on the result so
    budget sweeps over the same tables stack only once.
    """
    if result.flat is None:
        result.flat = _stack_result(tree, result)
    return result.flat


class LazyNodeTables(dict):
    """Read-only ``node -> NodeTables`` mapping materialized on demand.

    Every flat-engine result (cold gathers and delta repairs alike) carries
    this mapping as ``tables``: eagerly building all ``n`` per-node views
    costs a sizeable fraction of a cold gather, yet the batched colour
    kernel never reads ``tables`` at all and ``cost_for_budget`` touches
    only the root.  Entries are built from :meth:`FlatTables.node_tables`
    the first time a node is looked up and cached.  It is a ``dict``
    subclass, so every consumer treating ``tables`` as a mapping keeps
    working, but the mutating methods raise ``TypeError``.

    Bulk protocols (iteration, ``keys``/``values``/``items``, equality)
    reflect the *full* node set: they materialize every node in canonical
    flat order first, making the mapping indistinguishable from an eager
    dict.
    """

    def __init__(self, flat: FlatTables) -> None:
        super().__init__()
        self._flat = flat

    def __missing__(self, node: NodeId) -> NodeTables:
        tables = self._flat.node_tables(self._flat.plan.index[node])
        dict.__setitem__(self, node, tables)
        return tables

    # ``dict.get`` does not consult ``__missing__``; route it through
    # ``__getitem__`` so lazily-absent nodes still resolve.
    def get(self, node, default=None):
        if node not in self._flat.plan.index:
            return default
        return self[node]

    def _materialize_all(self) -> None:
        for node in self._flat.plan.order:
            if not dict.__contains__(self, node):
                self[node]

    def __contains__(self, node: object) -> bool:
        return node in self._flat.plan.index

    def __len__(self) -> int:
        return len(self._flat.plan.order)

    def __iter__(self):
        self._materialize_all()
        return dict.__iter__(self)

    def keys(self):
        self._materialize_all()
        return dict.keys(self)

    def values(self):
        self._materialize_all()
        return dict.values(self)

    def items(self):
        self._materialize_all()
        return dict.items(self)

    def __eq__(self, other: object) -> bool:
        self._materialize_all()
        return dict.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def _read_only(self, *args, **kwargs):
        raise TypeError("gather tables are read-only")

    __setitem__ = __delitem__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


def dirty_ancestor_positions(
    tree: TreeNetwork,
    index: dict[NodeId, int],
    delta: frozenset[NodeId] | set[NodeId],
) -> np.ndarray:
    """Flat positions whose DP slabs an availability delta invalidates.

    A switch's ``X`` table depends on the availability of every switch in
    its subtree, so flipping Λ membership of the delta switches dirties
    exactly those switches plus all their ancestors up to the root — the
    union of the delta's root paths.  Ancestor walks stop early when they
    hit a position already collected, so overlapping paths are not
    re-walked.  Returns the positions sorted ascending (``np.int64``).

    Raises
    ------
    RepairError
        If a delta entry is not a switch of ``tree`` (repairing towards a
        different structure is unsound).
    """
    destination = tree.destination
    dirty: set[int] = set()
    for switch in delta:
        if switch not in index:
            raise RepairError(
                f"availability delta entry {switch!r} is not a switch of the network"
            )
        node = switch
        while True:
            position = index[node]
            if position in dirty:
                break
            dirty.add(position)
            node = tree.parent(node)
            if node == destination:
                break
    return np.array(sorted(dirty), dtype=np.int64)


def dirty_level_groups(
    depth: np.ndarray, positions: np.ndarray
) -> list[tuple[int, np.ndarray]]:
    """Group dirty flat positions by level, deepest level first.

    Mirrors the cold gather's traversal order: levels descend (children
    are final before any parent is touched) and positions within a level
    stay ascending — the order ``positions`` already has.
    """
    levels = depth[positions]
    return [
        (int(level), positions[levels == level])
        for level in np.unique(levels)[::-1]
    ]
