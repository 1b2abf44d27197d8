"""Gather engines: interchangeable implementations of SOAR-Gather.

The reference implementation in :mod:`repro.core.gather` follows Algorithm 3
closely: it walks the post-order with a Python loop and builds one
:class:`~repro.core.gather.NodeTables` per node, combining children one at a
time.  That structure is ideal for studying the algorithm but the per-node
Python work dominates the running time on the larger instances of Figures 9
and 10.

The **flat engine** in this module computes the very same dynamic program on
one contiguous tensor ``X`` indexed by ``(l, i, node)`` over the post-order
traversal:

* all leaves are initialized in a single broadcast (no per-leaf loop),
* internal nodes are processed level by level (deepest first) and the
  ``mCost`` (min,+)-convolution of Algorithm 3 runs batched across *every
  node of a level at once*, vectorizing over ``(l, i, node)`` simultaneously
  instead of only over ``(l, i)``.

Everything about that traversal which depends on the topology and rates
alone — node order, depths, path costs, child lists, breadcrumb slots, the
per-level and per-stage index arrays — is a
:class:`~repro.core.flat.FlatPlan`, built once per tree structure and
shared by every ``with_loads`` / ``with_available`` clone.  A gather (or a
delta repair) therefore only derives the load and Λ vectors, the subtree
availability counts, and runs the kernels.

The node axis is the contiguous innermost one, so every update in the
convolution streams over long same-shaped runs — this is where the engine
gets its speed; see ``benchmarks/bench_fig9_runtime.py`` (comparison mode)
and ``benchmarks/bench_fig10_scaling.py`` for the measured speedups.

The registry holds **three** engines:

``"flat"`` (the default)
    The numpy implementation described above.

``"reference"``
    The per-node Algorithm 3 walk of :mod:`repro.core.gather`, retained as
    ground truth for differential testing (see :mod:`repro.testing` and
    ``tests/test_engine_differential.py``).

``"compiled"``
    The same flat orchestration with its two hot blocks — the leaf
    broadcast and the batched convolution — swapped for C kernels built
    on demand from ``_gather_kernels.c`` and called through ``ctypes``,
    which releases the GIL around every kernel call
    (:mod:`repro.core.engine_compiled`).  When no C compiler is available
    (or ``REPRO_NO_COMPILED`` is set) the entry stays registered and
    **falls back to the numpy kernels**: same name, same results, no
    consumer changes — ``repro.core.engine_compiled.HAVE_COMPILED`` tells
    you which path is active, and the compiled-specific tests skip.

Per element the arithmetic (and its floating-point evaluation order) is
identical across all three, including the ascending-``j`` tie-breaking of
the convolution argmin, so the engines produce **bit-identical** tables,
costs, and traceback breadcrumbs.  The flat engines hand out ordinary
:class:`~repro.core.gather.NodeTables` (views into the flat tensors) on
demand through a read-only :class:`~repro.core.flat.LazyNodeTables`
mapping, so :func:`repro.core.color.soar_color` traces the result
unchanged.  The reference engine never touches a plan, which keeps it an
independent oracle for the differential suite.

Use :func:`gather` to pick an engine by name.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace

import numpy as np

from repro.core.flat import (
    FlatTables,
    GatherLevel,
    LazyNodeTables,
    dirty_ancestor_positions,
    dirty_level_groups,
    plan_for,
)
from repro.core.gather import GatherResult, normalize_budget, soar_gather
from repro.core.tree import TreeNetwork
from repro.exceptions import RepairError

#: Name of the vectorized flat-array engine (the default).
FLAT_ENGINE: str = "flat"
#: Name of the per-node reference engine of :mod:`repro.core.gather`.
REFERENCE_ENGINE: str = "reference"
#: Name of the C-kernel engine of :mod:`repro.core.engine_compiled`.
COMPILED_ENGINE: str = "compiled"
#: Engine used when callers do not ask for a specific one.
DEFAULT_ENGINE: str = FLAT_ENGINE


@dataclass(frozen=True)
class GatherKernels:
    """The two swappable hot blocks of the flat gather driver.

    ``combine(previous, child_row, budget, blue, j_max) -> (best, split)``
        The batched ``mCost`` convolution.
    ``leaf_init(x, y_blue, y_red, path_rho, load, leaves, avail, exact_k, k)``
        The leaf-frontier broadcast, writing the three tables in place.

    Every implementation must perform the identical per-element IEEE-754
    operations in the identical order — the differential suite holds all
    kernel sets to bit-identical outputs.
    """

    combine: Callable[..., tuple[np.ndarray, np.ndarray]]
    leaf_init: Callable[..., None]


@functools.lru_cache(maxsize=None)
def _split_grid(width: int, splits: int, offset: int) -> tuple[np.ndarray, np.ndarray]:
    """``source[j, i] = i - j``, the ``previous`` column feeding budget
    column ``i`` at split ``j``, and the mask of invalid ``(j, i)`` cells
    (``i - j < offset``); read-only, shared by every call."""
    source = np.arange(width)[None, :] - np.arange(splits)[:, None]
    invalid = source < offset
    source = np.where(invalid, 0, source)
    source.flags.writeable = invalid.flags.writeable = False
    return source, invalid


def _combine_small_batch(
    previous: np.ndarray,
    child_row: np.ndarray,
    budget: int,
    blue: bool,
    j_max: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked-candidate variant of :func:`_batched_combine` for tiny batches.

    The sequential split loop of the batched kernel pays ~6 numpy
    dispatches per ``j``; on the big level slabs of a cold gather that
    overhead amortizes over hundreds of node columns, but the delta-repair
    path calls the kernel with a handful of dirty nodes per level, where
    dispatch dominates the arithmetic.  This variant gathers every
    candidate split into one ``(H, J, k + 1, B)`` stack with a single
    fancy index (invalid cells ``+inf``) and reduces with one min/argmin
    pair.

    Bit-identity with the sequential loop: every candidate value is the
    same ``np.add`` of the same operands; the one-shot minimum of a
    NaN-free, ``-0.0``-free candidate set is the exact same float the
    running ``np.minimum`` converges to (float min is exact, order-free);
    and ``np.argmin``'s first-minimum rule reproduces the loop's
    smallest-split strict-improvement tie-break, including split 0 for
    all-``inf`` columns.
    """
    if j_max is None:
        j_max = budget
    splits = min(budget, j_max) + 1
    source, invalid = _split_grid(budget + 1, splits, 1 if blue else 0)
    stacked = previous[:, source] + child_row[:, :splits, None, :]
    stacked[:, invalid] = np.inf
    return stacked.min(axis=1), stacked.argmin(axis=1).astype(np.int32)


def _batched_combine(
    previous: np.ndarray,
    child_row: np.ndarray,
    budget: int,
    blue: bool,
    j_max: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``mCost`` (min,+)-convolution over the budget axis.

    ``previous`` has shape ``(H, k + 1, B)`` holding ``Y^{m-1}`` for ``B``
    same-depth nodes; ``child_row`` has shape ``(H, k + 1, B)`` (red parent:
    child indexed at ``l + 1``) or ``(1, k + 1, B)`` (blue parent: child
    always sees ``l = 1``, broadcast over the parameter axis).  Mirrors
    :func:`repro.core.gather._combine_child` element for element — same
    iteration order over the split ``j``, same strict-improvement update —
    batched over the trailing node axis.

    The running minimum is maintained with ``np.minimum`` and the argmin
    with integer mask arithmetic rather than masked assignment: with the
    node axis contiguous these are straight SIMD streams, several times
    faster than ``np.copyto(..., where=)``.

    ``j_max`` optionally caps the split range at the number of available
    switches inside the child subtree.  Larger splits cannot strictly
    improve any entry — under at-most-k semantics the child columns beyond
    ``j_max`` are exact copies of column ``j_max`` while the ``previous``
    side is non-increasing in the budget, and under exactly-k they are
    ``+inf`` — so the capped convolution is bit-identical to the full one,
    including the stored argmin (the uncapped candidates never win the
    strict-improvement tie-break).

    Tiny batches (a few dirty nodes during a delta repair, the near-root
    levels of a cold gather) are routed to the bit-identical
    :func:`_combine_small_batch`, which trades the per-split dispatch
    overhead for one stacked min/argmin reduction.
    """
    if previous.shape[0] * previous.shape[2] <= 64:
        return _combine_small_batch(previous, child_row, budget, blue, j_max)
    height, width, batch = previous.shape[0], budget + 1, previous.shape[2]
    if j_max is None:
        j_max = budget
    best = np.empty((height, width, batch), dtype=np.float64)
    best_split = np.zeros((height, width, batch), dtype=np.int32)

    # j = 0 seeds the running minimum directly (split 0, like the reference's
    # first strict improvement over the +inf initialization).
    start0 = 1 if blue else 0
    if start0 > budget:
        best.fill(np.inf)
        return best, best_split
    best[:, :start0] = np.inf
    np.add(previous[:, start0:], child_row[:, 0:1], out=best[:, start0:])

    candidate = np.empty((height, width, batch), dtype=np.float64)
    improved = np.empty((height, width, batch), dtype=bool)
    scratch = np.empty((height, width, batch), dtype=np.int32)
    for j in range(1, min(budget, j_max) + 1):
        start = j + 1 if blue else j  # blue parent keeps one unit for itself
        if start > budget:
            break
        cand = candidate[:, : width - start]
        np.add(
            previous[:, start - j : width - j],
            child_row[:, j : j + 1],
            out=cand,
        )
        target = best[:, start:]
        # Strictly-better mask first (ties keep the smaller split j), then a
        # branch-free minimum and argmin update.
        better = np.less(cand, target, out=improved[:, : width - start])
        np.minimum(target, cand, out=target)
        split_target = best_split[:, start:]
        delta = scratch[:, : width - start]
        np.subtract(np.int32(j), split_target, out=delta)
        np.multiply(delta, better, out=delta)
        np.add(split_target, delta, out=split_target)
    return best, best_split


def _leaf_init_numpy(
    x_flat: np.ndarray,
    y_blue_flat: np.ndarray,
    y_red_flat: np.ndarray,
    path_rho: np.ndarray,
    load: np.ndarray,
    leaves: np.ndarray,
    avail: np.ndarray,
    exact_k: bool,
    k: int,
) -> None:
    """Initialize the whole leaf frontier in one numpy broadcast."""
    leaf_paths = path_rho[:, leaves]  # (height + 1, m)
    red_columns = leaf_paths * load[leaves]
    blue_leaves = leaves[avail[leaves]]
    y_blue_flat[:, :, leaves] = np.inf
    if exact_k:
        y_red_flat[:, :, leaves] = np.inf
        y_red_flat[:, 0, leaves] = red_columns
        if k >= 1 and blue_leaves.size:
            y_blue_flat[:, 1, blue_leaves] = path_rho[:, blue_leaves]
    else:
        y_red_flat[:, :, leaves] = red_columns[:, None, :]
        if k >= 1 and blue_leaves.size:
            y_blue_flat[:, 1:, blue_leaves] = path_rho[:, blue_leaves][:, None, :]
    x_flat[:, :, leaves] = np.minimum(
        y_red_flat[:, :, leaves], y_blue_flat[:, :, leaves]
    )


#: The pure-numpy kernel set of the ``"flat"`` engine (and the fallback of
#: the ``"compiled"`` one).
NUMPY_KERNELS = GatherKernels(combine=_batched_combine, leaf_init=_leaf_init_numpy)


def subtree_available_counts(
    depth: np.ndarray,
    parent: np.ndarray,
    avail: np.ndarray,
    height: int,
) -> np.ndarray:
    """``|Λ ∩ T_v|`` for every node, in the flat node order.

    Accumulated child -> parent one level slab at a time, deepest first
    (``depth`` is sorted descending).  The root's slab is never scattered:
    its parent is the destination (``-1``), which would wrap onto the
    *last* flat position — the root itself — and double its count.  The
    convolution cap only reads non-root entries, but kernels that reuse
    this array rely on every entry being the true count, the root's
    exactly ``|Λ|``.
    """
    counts = avail.astype(np.int64)
    bounds = np.searchsorted(-depth, -np.arange(height + 2), side="right")  # nodes at depth >= d
    for level in range(height, 1, -1):
        start, stop = bounds[level + 1], bounds[level]
        np.add.at(counts, parent[start:stop], counts[start:stop])
    return counts


def _gather_levels(
    levels: Iterable[GatherLevel],
    kernels: GatherKernels,
    k: int,
    load: np.ndarray,
    avail: np.ndarray,
    subtree_avail: np.ndarray,
    x_flat: np.ndarray,
    flat: FlatTables,
) -> None:
    """Run the level-batched DP over internal-node ``levels`` (deepest first),
    writing ``x_flat`` and the ``y`` / breadcrumb tensors of ``flat`` in place.

    Children are final before any parent level is touched, so every child
    read sees the value a cold gather would.  ``subtree_avail`` (``|Λ ∩
    T_v|`` per node) caps each convolution's split range (see
    :func:`_batched_combine`).
    """
    for group, rows, upward, first_child, stages in levels:
        can_blue = avail[group] & (k >= 1)

        # stage m = 1
        y_red = x_flat[1 : rows + 1, :, first_child] + (
            upward * load[group]
        )[:, None, :]
        y_blue = np.full_like(y_red, np.inf)
        if can_blue.any():  # can_blue already folds in k >= 1
            sel = np.nonzero(can_blue)[0]
            # x_flat[1] first: a scalar index combined with the node fancy
            # index would move the broadcast axes to the front.
            y_blue[:, 1:, sel] = (
                x_flat[1][:k, first_child[sel]][None, :, :] + upward[:, sel][:, None, :]
            )

        # stages m = 2 .. C(v): batched convolution over every node of the
        # level that still has an m-th child.
        for active, _, child, slots in stages:
            j_cap = int(subtree_avail[child].max())

            child_red = x_flat[1 : rows + 1, :, child]
            merged_red, split_red = kernels.combine(
                y_red[:, :, active], child_red, k, blue=False, j_max=j_cap
            )
            y_red[:, :, active] = merged_red
            flat.splits_red[:rows, :, slots] = split_red

            # Nodes that cannot be blue keep all-zero blue breadcrumbs (a
            # repaired node may have been blue-capable before).
            flat.splits_blue[:rows, :, slots] = 0
            blue_active = np.nonzero(can_blue[active])[0]
            if blue_active.size:
                child_blue = x_flat[1][:, child[blue_active]][None, :, :]
                merged_blue, split_blue = kernels.combine(
                    y_blue[:, :, active[blue_active]], child_blue, k, blue=True, j_max=j_cap
                )
                y_blue[:, :, active[blue_active]] = merged_blue
                flat.splits_blue[:rows, :, slots[blue_active]] = split_blue

        x_flat[:rows, :, group] = np.minimum(y_blue, y_red)
        flat.y_red[:rows, :, group] = y_red
        flat.y_blue[:rows, :, group] = y_blue


def _gather_flat_tensors(
    tree: TreeNetwork,
    budget: int,
    exact_k: bool,
    kernels: GatherKernels,
    engine: str,
) -> GatherResult:
    """The shared flat-tensor gather driver, parameterized by kernel set."""
    k = normalize_budget(tree, budget)
    # Node axis of the flat tensors: the canonical deepest-level-first
    # order of the structure's plan.  Every level is then a contiguous
    # slab, so the child gathers and table writes of the level-batched
    # loop stay cache-local; children still precede parents.
    plan = plan_for(tree)
    shape = (plan.height + 1, k + 1, len(plan.order))
    stages_shape = (plan.height + 1, k + 1, plan.total_stages)
    load = plan.tree_loads(tree)
    avail = plan.avail_vector(tree.available)
    # Entries at rows l > D(v) are uninitialized and are never read (a
    # parent at depth d reads child rows 1 .. d + 1 <= D(child) + 1); the
    # infinities the DP relies on are written explicitly.
    x_flat = np.empty(shape, dtype=np.float64)
    flat = FlatTables(
        tree=tree,
        plan=plan,
        load=load,
        avail=avail,
        y_blue=np.empty(shape, dtype=np.float64),
        y_red=np.empty(shape, dtype=np.float64),
        splits_blue=np.zeros(stages_shape, dtype=np.int32),
        splits_red=np.zeros(stages_shape, dtype=np.int32),
    )
    load_f = load.astype(np.float64)
    if plan.leaves.size:  # the whole leaf frontier in one broadcast
        kernels.leaf_init(
            x_flat, flat.y_blue, flat.y_red, plan.path_rho, load_f, plan.leaves, avail, exact_k, k
        )
    subtree_avail = subtree_available_counts(plan.depth, plan.parent, avail, plan.height)
    _gather_levels(plan.levels, kernels, k, load_f, avail, subtree_avail, x_flat, flat)
    return GatherResult(
        tables=LazyNodeTables(flat),
        root=tree.root,
        budget=k,
        requested_budget=int(budget),
        exact_k=exact_k,
        engine=engine,
        flat=flat,
    )


def flat_gather(
    tree: TreeNetwork,
    budget: int,
    exact_k: bool = False,
) -> GatherResult:
    """Run SOAR-Gather on flat ``(l, i, node)`` tensors.

    Drop-in replacement for :func:`repro.core.gather.soar_gather`: same
    parameters, same :class:`~repro.core.gather.GatherResult` (the per-node
    tables are numpy views into the contiguous tensors).
    """
    return _gather_flat_tensors(
        tree, budget, exact_k, kernels=NUMPY_KERNELS, engine=FLAT_ENGINE
    )


def _repair_flat_tensors(
    result: GatherResult,
    tree: TreeNetwork,
    kernels: GatherKernels,
    engine: str,
) -> GatherResult:
    """Delta-repair a flat gather result towards ``tree``'s availability.

    ``result`` was gathered for ``result.flat.tree`` (availability Λ₀);
    ``tree`` is the same structure and loads under a different Λ.  Only the
    switches of the symmetric difference Λ₀ ^ Λ and their ancestors have
    stale DP slabs — every other subtree sees an unchanged Λ ∩ T_v — so
    the repair clones the flat tensors and re-runs the level-batched
    convolution for the dirty columns alone: O(depth · k² · |delta|) work
    instead of the cold gather's O(n · k²).

    Bit-identity with a cold gather is preserved end to end:

    * dirty columns are recomputed by the cold driver's own level routine
      (:func:`_gather_levels`) with the same kernels, the same split caps
      and the same plan, in the same level order, reading clean children's
      ``x`` as ``min(y_red, y_blue)`` — exactly the values the cold driver
      wrote (inputs are NaN-free and sign-consistent, so the minimum is
      bitwise unique);
    * stale blue breadcrumbs of dirty nodes are re-zeroed before the blue
      convolution writes, matching the cold driver's zero-initialized
      split tensors for nodes that can no longer be blue.

    Clean columns keep their cloned values untouched, and rows beyond a
    node's depth stay unspecified (never read) exactly as in a cold
    gather.

    Raises :class:`~repro.exceptions.RepairError` when repair is unsound:
    no flat tensors, different structure or loads, or a changed effective
    budget (the tensor width would differ).
    """
    old_flat = result.flat
    if not isinstance(old_flat, FlatTables):
        raise RepairError("gather result carries no flat tensors to repair")
    old_tree = old_flat.tree
    if old_tree.structure_fingerprint() != tree.structure_fingerprint():
        raise RepairError(
            "cannot repair a gather table across structure changes; "
            "the flat tensor layout is structure-specific"
        )
    if old_tree.loads_fingerprint() != tree.loads_fingerprint():
        raise RepairError(
            "cannot repair a gather table across load changes; "
            "every column of the DP depends on its subtree loads"
        )
    k = normalize_budget(tree, result.requested_budget)
    if k != result.budget:
        raise RepairError(
            f"effective budget changed ({result.budget} -> {k}): the delta "
            "moved |Λ| across the requested budget, so the tensor width of "
            "the cached tables no longer matches"
        )

    plan = old_flat.plan
    delta = old_tree.available ^ tree.available
    dirty = dirty_ancestor_positions(tree, plan.index, delta)
    avail = old_flat.avail.copy()
    for switch in delta:
        avail[plan.index[switch]] = switch in tree.available

    # Copy-on-write clone: the repaired result must not mutate the cached
    # tensors (the cache may repair the same artifact towards several Λ's).
    new_flat = replace(
        old_flat,
        tree=tree,
        avail=avail,
        y_blue=old_flat.y_blue.copy(),
        y_red=old_flat.y_red.copy(),
        splits_blue=old_flat.splits_blue.copy(),
        splits_red=old_flat.splits_red.copy(),
        cost_model=None,
    )
    load = old_flat.load.astype(np.float64)
    # Tables keep no x tensor; every valid entry was written as this minimum.
    x_flat = np.minimum(new_flat.y_red, new_flat.y_blue)

    dirty_leaves = dirty[plan.leaf[dirty]]
    if dirty_leaves.size:
        kernels.leaf_init(
            x_flat,
            new_flat.y_blue,
            new_flat.y_red,
            plan.path_rho,
            load,
            dirty_leaves,
            avail,
            result.exact_k,
            k,
        )
    levels = (
        plan.level(group, level + 1)
        for level, group in dirty_level_groups(plan.depth, dirty[~plan.leaf[dirty]])
    )
    subtree_avail = subtree_available_counts(plan.depth, plan.parent, avail, plan.height)
    _gather_levels(levels, kernels, k, load, avail, subtree_avail, x_flat, new_flat)

    return GatherResult(
        tables=LazyNodeTables(new_flat),
        root=tree.root,
        budget=k,
        requested_budget=result.requested_budget,
        exact_k=result.exact_k,
        engine=engine,
        flat=new_flat,
    )


def flat_repair(result: GatherResult, tree: TreeNetwork) -> GatherResult:
    """Delta-repair a flat-engine gather result towards ``tree``.

    Drop-in sibling of :func:`flat_gather`: the returned result is
    bit-identical (costs, tables, breadcrumbs, traced placements) to
    ``flat_gather(tree, result.requested_budget, result.exact_k)``.
    """
    return _repair_flat_tensors(result, tree, kernels=NUMPY_KERNELS, engine=FLAT_ENGINE)


#: Registry of gather-table repairers, keyed by engine name.  The
#: ``"compiled"`` entry is appended by :mod:`repro.core.engine_compiled`;
#: the ``"reference"`` engine has none (its results may not carry flat
#: tensors), so repairing a reference table falls back to a cold gather.
REPAIRERS: dict[str, Callable[[GatherResult, TreeNetwork], GatherResult]] = {
    FLAT_ENGINE: flat_repair,
}


def repair(result: GatherResult, tree: TreeNetwork, engine: str | None = None) -> GatherResult:
    """Delta-repair ``result`` towards ``tree`` with the named engine.

    Defaults to the engine that produced the result.  Raises
    :class:`~repro.exceptions.RepairError` when the engine has no
    registered repairer or the repair would be unsound (see
    :func:`_repair_flat_tensors`); callers handle it by re-gathering.
    """
    name = result.engine if engine is None else engine
    repairer = REPAIRERS.get(name)
    if repairer is None:
        raise RepairError(
            f"no gather-table repairer registered for engine {name!r}"
        )
    return repairer(result, tree)


#: Registry of gather engines, keyed by their public name.  The
#: ``"compiled"`` entry is appended by :mod:`repro.core.engine_compiled`
#: at the bottom of this module (it needs the driver defined first).
ENGINES: dict[str, Callable[..., GatherResult]] = {
    FLAT_ENGINE: flat_gather,
    REFERENCE_ENGINE: soar_gather,
}


def gather(
    tree: TreeNetwork,
    budget: int,
    exact_k: bool = False,
    engine: str = DEFAULT_ENGINE,
) -> GatherResult:
    """Run SOAR-Gather with the named engine.

    ``"flat"`` (default), ``"compiled"``, or ``"reference"``; all three
    produce bit-identical results — see the module docstring.
    """
    try:
        implementation = ENGINES[engine]
    except KeyError:
        known = ", ".join(sorted(ENGINES))
        raise ValueError(f"unknown gather engine {engine!r}; expected one of: {known}")
    return implementation(tree, budget, exact_k=exact_k)


# Registers the "compiled" engine (self-registration keeps the import
# order safe whichever module is imported first).
import repro.core.engine_compiled  # noqa: E402,F401  (registration side effect)
