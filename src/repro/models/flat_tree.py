"""Flattened-array representation of the particle posterior.

The dynamic tree spends most of its prediction/acquisition time descending
trees: every ``predict()`` and every ALC score routes hundreds of rows
through every particle.  Holding the particles as flat NumPy arrays turns
that work into a handful of vectorized gathers per tree *level* instead of
a Python-level branch per (row, level, particle).

* :class:`ParticleForest` is the model's whole posterior: every particle's
  tree as one padded ``(n_particles, capacity)`` array set, the leaves'
  cached statistics, and ``leaf_of``, the leaf each training row sits in
  for every particle.  Each SMC update splices its stay/grow/prune moves
  and its resample into the arrays with a constant number of array
  operations, whatever the number of particles moving.
* :class:`FlatForest` is the flattened view the routing, reweight and ALC
  kernels read: one :meth:`FlatForest.route` call descends all
  ``n_particles × n_rows`` (particle, row) pairs together.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .leaf import LeafCacheArrays

__all__ = ["FlatForest", "ParticleForest"]


class FlatForest:
    """All of a model's particle trees as one flat array set.

    Child indices and leaf ids are *global*: particle ``p``'s root sits at
    node ``roots[p]`` and its local leaf ``i`` is global leaf
    ``leaf_offsets[p] + i``.  One :meth:`route` call therefore descends
    every (particle, row) pair together, and ``n_leaves`` bounds every
    global id, so a single ``bincount`` aggregates per-leaf statistics
    across the whole forest without per-particle bookkeeping.  Entries
    between particles that no root reaches are never read.
    """

    __slots__ = (
        "split_dim",
        "split_value",
        "left",
        "right",
        "leaf_slot",
        "caches",
        "roots",
        "leaf_offsets",
        "n_particles",
        "n_leaves",
    )

    def __init__(
        self,
        split_dim: np.ndarray,
        split_value: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        leaf_slot: np.ndarray,
        caches: LeafCacheArrays,
        roots: np.ndarray,
        leaf_offsets: np.ndarray,
    ) -> None:
        self.split_dim = split_dim
        self.split_value = split_value
        self.left = left
        self.right = right
        self.leaf_slot = leaf_slot
        self.caches = caches
        self.roots = roots
        self.leaf_offsets = leaf_offsets
        self.n_particles = int(roots.shape[0])
        self.n_leaves = len(caches)

    @property
    def leaf_variance(self) -> np.ndarray:
        return self.caches.variance

    @property
    def leaf_count(self) -> np.ndarray:
        return self.caches.count

    def route(self, X: np.ndarray) -> np.ndarray:
        """Global leaf ids, shape ``(n_particles, n_rows)``.

        Every (particle, row) pair starts at that particle's root and
        descends level-by-level; pairs that reach a leaf drop out of the
        active set, so the loop count is the depth of the deepest particle.
        """
        X = np.atleast_2d(X)
        n = X.shape[0]
        nodes = np.repeat(self.roots, n)
        rows = np.tile(np.arange(n, dtype=np.intp), self.n_particles)
        active = np.flatnonzero(self.split_dim[nodes] >= 0)
        while active.size:
            current = nodes[active]
            dims = self.split_dim[current]
            go_left = X[rows[active], dims] <= self.split_value[current]
            nodes[active] = np.where(go_left, self.left[current], self.right[current])
            still_internal = self.split_dim[nodes[active]] >= 0
            active = active[still_internal]
        return self.leaf_slot[nodes].reshape(self.n_particles, n)

    def route_update(
        self, x: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One row routed through every particle, with its context.

        The same level-synchronous descent as :meth:`route` for a single
        row, also recording where each particle's descent ended.  Returns
        ``(leaf_ids, leaf_nodes, parent_nodes, depths)``: the global leaf
        id and *node* index each particle lands on, the node index of that
        leaf's parent (``-1`` for root-leaves) and the descent depth.  The
        update's propagate phases derive the prune sibling and the
        tree-prior depth terms from these.
        """
        nodes = self.roots.copy()
        parents = np.full(nodes.shape[0], -1, dtype=np.intp)
        depths = np.zeros(nodes.shape[0], dtype=np.intp)
        active = np.flatnonzero(self.split_dim[nodes] >= 0)
        while active.size:
            current = nodes[active]
            go_left = x[self.split_dim[current]] <= self.split_value[current]
            parents[active] = current
            nodes[active] = np.where(go_left, self.left[current], self.right[current])
            depths[active] += 1
            still_internal = self.split_dim[nodes[active]] >= 0
            active = active[still_internal]
        return self.leaf_slot[nodes], nodes, parents, depths

    def predict_components(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-particle predictive ``(mean, variance)``, each ``(n_particles, n_rows)``."""
        leaf_ids = self.route(X)
        return self.caches.mean[leaf_ids], self.caches.variance[leaf_ids]


class ParticleForest:
    """Every particle's tree, one padded row per particle.

    ``split_dim``, ``split_value``, ``left``, ``right`` and ``leaf_slot``
    are ``(n_particles, capacity)`` arrays and ``data`` is the
    ``(n_particles, leaf_capacity, 9)`` leaf-cache block.  Row ``p`` holds
    particle ``p``'s nodes in pre-order (leaves numbered left to right);
    child pointers are global node ids (``p * capacity + local``) and leaf
    slots global leaf ids (``p * leaf_capacity + local``); ``-1``
    sentinels stay ``-1``.  The flattened arrays are therefore a valid
    :class:`FlatForest` (:meth:`view`), and local indices are
    ``global % capacity``.  Entries past a row's ``n_nodes`` live nodes
    are padding no root reaches.

    ``leaf_of[p, i]`` is the local leaf id of training row ``i`` in
    particle ``p`` (int32; columns past the model's training size are
    unused), so a leaf's members are one ``nonzero`` in ascending
    training order.  It always equals routing the training rows through
    the trees: a grow moves the split leaf's rows whose feature exceeds
    the threshold to the new right leaf, and a prune merges two ids.

    Every update is a constant number of array operations, however many
    particles move: stays are one write into ``data``, all grows one
    splice (:meth:`grow`), all prunes one splice (:meth:`prune`), the new
    point one column write (:meth:`assign`) and a resample one row gather
    (:meth:`gather`).  The capacity doubles when a grow would overflow it.
    """

    __slots__ = (
        "split_dim",
        "split_value",
        "left",
        "right",
        "leaf_slot",
        "data",
        "n_nodes",
        "leaf_of",
    )

    #: Smallest row capacity (nodes); the initial capacity is the smallest
    #: power of two at least this large and twice the biggest tree.
    MIN_CAPACITY = 32

    def __init__(self, n_particles: int, capacity: int) -> None:
        leaf_capacity = (capacity + 1) // 2
        shape = (n_particles, capacity)
        self.split_dim = np.full(shape, -1, dtype=np.intp)
        self.split_value = np.zeros(shape)
        self.left = np.full(shape, -1, dtype=np.intp)
        self.right = np.full(shape, -1, dtype=np.intp)
        self.leaf_slot = np.full(shape, -1, dtype=np.intp)
        self.data = np.zeros((n_particles, leaf_capacity, LeafCacheArrays.N_COLUMNS))
        self.n_nodes = np.zeros(n_particles, dtype=np.intp)
        self.leaf_of = np.zeros((n_particles, 0), dtype=np.int32)

    @property
    def capacity(self) -> int:
        return int(self.split_dim.shape[1])

    @property
    def leaf_capacity(self) -> int:
        return int(self.data.shape[1])

    @classmethod
    def root_only(cls, n_particles: int) -> "ParticleForest":
        """Every particle a single empty root leaf (zero statistics)."""
        forest = cls(n_particles, cls.MIN_CAPACITY)
        forest.leaf_slot[:, 0] = np.arange(n_particles, dtype=np.intp) * forest.leaf_capacity
        forest.n_nodes[:] = 1
        return forest

    @classmethod
    def from_preorder(
        cls,
        n_nodes: np.ndarray,
        split_dim: np.ndarray,
        split_value: np.ndarray,
        leaf_data: np.ndarray,
    ) -> "ParticleForest":
        """A forest from ragged pre-order arrays (see :meth:`preorder`).

        ``split_dim`` concatenates every particle's ``n_nodes[p]`` nodes in
        pre-order (``-1`` for a leaf), ``split_value`` holds the internal
        nodes' thresholds and ``leaf_data`` the leaves' cache rows, both in
        the same order.  ``leaf_of`` is left empty.
        """
        n_nodes = np.asarray(n_nodes, dtype=np.intp)
        count = n_nodes.shape[0]
        capacity = cls.MIN_CAPACITY
        while capacity < 2 * int(n_nodes.max()):
            capacity *= 2
        forest = cls(count, capacity)
        rows = np.repeat(np.arange(count, dtype=np.intp), n_nodes)
        cols = np.arange(rows.shape[0], dtype=np.intp) - np.repeat(
            np.cumsum(n_nodes) - n_nodes, n_nodes
        )
        dims = np.asarray(split_dim, dtype=np.intp)
        internal = np.flatnonzero(dims >= 0)
        leaves = np.flatnonzero(dims < 0)
        # Subtree sizes in one reverse pass: an internal node's left child
        # follows it, and its right child follows the left subtree.
        size = [1] * dims.shape[0]
        for i in internal[::-1].tolist():
            size[i] = 1 + size[i + 1] + size[i + 1 + size[i + 1]]
        left_size = np.asarray(size, dtype=np.intp)[internal + 1]
        gid = rows * capacity + cols
        forest.split_dim[rows, cols] = dims
        forest.split_value[rows[internal], cols[internal]] = split_value
        forest.left[rows[internal], cols[internal]] = gid[internal] + 1
        forest.right[rows[internal], cols[internal]] = gid[internal] + 1 + left_size
        n_leaves = (n_nodes + 1) // 2
        leaf_rows = rows[leaves]
        leaf_ids = np.arange(leaves.shape[0], dtype=np.intp) - np.repeat(
            np.cumsum(n_leaves) - n_leaves, n_leaves
        )
        forest.leaf_slot[leaf_rows, cols[leaves]] = leaf_rows * forest.leaf_capacity + leaf_ids
        forest.data[leaf_rows, leaf_ids] = leaf_data
        forest.n_nodes = n_nodes.copy()
        return forest

    def preorder(self) -> dict:
        """The forest as ragged pre-order arrays (the checkpoint snapshot).

        ``n_nodes`` per particle, ``split_dim`` of every live node (``-1``
        marks a leaf, so the pre-order sequence alone fixes the tree
        shape), ``split_value`` of the internal nodes and ``(count, sum,
        sum_sq)`` of the leaves in leaf-id order.  ``leaf_of`` is left
        out: routing the training rows through the trees re-derives it.
        """
        n_nodes = self.n_nodes
        live = np.arange(self.capacity) < n_nodes[:, None]
        split_dim = self.split_dim[live]
        leaf_live = np.arange(self.leaf_capacity) < ((n_nodes + 1) // 2)[:, None]
        columns = [LeafCacheArrays.COUNT, LeafCacheArrays.SUM, LeafCacheArrays.SUM_SQ]
        return {
            "n_nodes": n_nodes.astype(np.int32),
            "split_dim": split_dim.astype(np.int32),
            "split_value": self.split_value[live][split_dim >= 0],
            "leaf_stats": self.data[leaf_live][:, columns],
        }

    def view(self) -> FlatForest:
        """The flattened arrays as a :class:`FlatForest` (views, not copies).

        Built on demand rather than cached: a cached view would not follow
        the arrays through :meth:`gather`, a capacity change or a copy.
        """
        count, capacity = self.split_dim.shape
        return FlatForest(
            split_dim=self.split_dim.reshape(-1),
            split_value=self.split_value.reshape(-1),
            left=self.left.reshape(-1),
            right=self.right.reshape(-1),
            leaf_slot=self.leaf_slot.reshape(-1),
            caches=LeafCacheArrays(self.data.reshape(-1, LeafCacheArrays.N_COLUMNS)),
            roots=np.arange(count, dtype=np.intp) * capacity,
            leaf_offsets=np.arange(count, dtype=np.intp) * self.leaf_capacity,
        )

    # ---------------------------------------------------------------- updates

    def gather(self, chosen: np.ndarray) -> None:
        """Resample: row ``j`` becomes a copy of row ``chosen[j]``.

        The gathered arrays are new objects, so a :class:`FlatForest` view
        taken before the gather keeps reading the pre-resample rows.
        """
        capacity = self.capacity
        shift = (np.arange(chosen.shape[0], dtype=np.intp) - chosen)[:, None]
        for name, stride in (
            ("left", capacity),
            ("right", capacity),
            ("leaf_slot", self.leaf_capacity),
        ):
            moved = getattr(self, name)[chosen]
            np.add(moved, shift * stride, out=moved, where=moved >= 0)
            setattr(self, name, moved)
        self.split_dim = self.split_dim[chosen]
        self.split_value = self.split_value[chosen]
        self.data = self.data[chosen]
        self.n_nodes = self.n_nodes[chosen]
        self.leaf_of = self.leaf_of[chosen]

    def grow(
        self,
        rows: np.ndarray,
        nodes: np.ndarray,
        leaf_ids: np.ndarray,
        split_dims: np.ndarray,
        split_values: np.ndarray,
        child_rows: np.ndarray,
        train: np.ndarray,
    ) -> None:
        """Split leaf node ``nodes[k]`` (leaf id ``leaf_ids[k]``) of row ``rows[k]``.

        The node becomes internal on ``(split_dims[k], split_values[k])``;
        its children land at ``nodes[k] + 1``/``+ 2`` with leaf ids
        ``leaf_ids[k]``/``+ 1`` and cache rows ``child_rows[k, 0]``/``[k, 1]``
        (``child_rows`` is ``(len(rows), 2, 9)``).  Later nodes shift by
        +2 and later leaves by +1 — one splice for all rows.  ``train``
        holds the training rows ``leaf_of`` covers; the split leaf's rows
        that do not go left (``x[dim] <= value``, as routing decides) move
        to the right child.
        """
        needed = int(self.n_nodes[rows].max()) + 2
        if needed > self.capacity:
            capacity = 2 * self.capacity
            while capacity < needed:
                capacity *= 2
            self._reserve(capacity)
        self._shift(rows, nodes, 2, leaf_ids, 1)
        capacity = self.capacity
        global_nodes = rows * capacity + nodes
        self.split_dim[rows, nodes] = split_dims
        self.split_value[rows, nodes] = split_values
        self.left[rows, nodes] = global_nodes + 1
        self.right[rows, nodes] = global_nodes + 2
        self.leaf_slot[rows, nodes] = -1
        children = (rows[:, None], nodes[:, None] + np.array([1, 2]))
        self.split_dim[children] = -1
        self.split_value[children] = 0.0
        self.left[children] = -1
        self.right[children] = -1
        pair = np.array([0, 1])
        self.leaf_slot[children] = (rows * self.leaf_capacity + leaf_ids)[:, None] + pair
        self.data[rows[:, None], leaf_ids[:, None] + pair] = child_rows
        block = self.leaf_of[rows, : train.shape[0]]
        ids = leaf_ids[:, None]
        right = (block == ids) & ~(train[:, split_dims].T <= split_values[:, None])
        block += (block > ids) | right
        self.leaf_of[rows, : train.shape[0]] = block

    def prune(
        self,
        rows: np.ndarray,
        parents: np.ndarray,
        leaf_ids: np.ndarray,
        merged_rows: np.ndarray,
        n_train: int,
    ) -> None:
        """Collapse internal node ``parents[k]`` of row ``rows[k]`` into a leaf.

        Both children of each parent are leaves; ``leaf_ids[k]`` is the
        *left* child's id, which the merged leaf takes over with cache row
        ``merged_rows[k]``.  Later nodes shift by -2 and later leaves (the
        right child's rows of ``leaf_of``'s first ``n_train`` columns
        included) by -1 — one splice for all rows.
        """
        self._shift(rows, parents, -2, leaf_ids, -1)
        self.split_dim[rows, parents] = -1
        self.split_value[rows, parents] = 0.0
        self.left[rows, parents] = -1
        self.right[rows, parents] = -1
        self.leaf_slot[rows, parents] = rows * self.leaf_capacity + leaf_ids
        self.data[rows, leaf_ids] = merged_rows
        block = self.leaf_of[rows, :n_train]
        block -= block > leaf_ids[:, None]
        self.leaf_of[rows, :n_train] = block

    def assign(self, index: int, leaf_ids: np.ndarray) -> None:
        """Record training row ``index`` in leaf ``leaf_ids[p]`` of each row ``p``.

        ``leaf_of`` widens geometrically when ``index`` is past its columns.
        """
        width = self.leaf_of.shape[1]
        if index >= width:
            grown = np.zeros((self.leaf_of.shape[0], max(64, 2 * index)), dtype=np.int32)
            grown[:, :width] = self.leaf_of
            self.leaf_of = grown
        self.leaf_of[:, index] = leaf_ids

    def _shift(
        self,
        rows: np.ndarray,
        node_at: np.ndarray,
        node_delta: int,
        leaf_at: np.ndarray,
        leaf_delta: int,
    ) -> None:
        """Move each row's nodes after ``node_at`` and leaves after ``leaf_at``.

        ``node_delta``/``leaf_delta`` are ``+2``/``+1`` for a grow (room for
        two children) and ``-2``/``-1`` for a prune (the two children
        removed).  Pointers and leaf slots into the moved range are fixed
        with one ``where`` each; the entries the move vacates or leaves
        behind are the caller's to overwrite.
        """
        capacity = self.capacity
        leaf_capacity = self.leaf_capacity
        block = rows[:, None]
        cols = np.arange(capacity, dtype=np.intp)
        src = np.where(cols > node_at[:, None], cols - node_delta, cols)
        np.clip(src, 0, capacity - 1, out=src)
        # A prune removes the two nodes after the parent, so only pointers
        # past them move; a grow moves every pointer past the split leaf.
        moved_above = (rows * capacity + node_at + max(0, -node_delta))[:, None]
        for name in ("left", "right"):
            array = getattr(self, name)
            moved = array[block, src]
            np.add(moved, node_delta, out=moved, where=moved > moved_above)
            array[rows] = moved
        self.split_dim[rows] = self.split_dim[block, src]
        self.split_value[rows] = self.split_value[block, src]
        slots = self.leaf_slot[block, src]
        slots_above = (rows * leaf_capacity + leaf_at + max(0, -leaf_delta))[:, None]
        np.add(slots, leaf_delta, out=slots, where=slots > slots_above)
        self.leaf_slot[rows] = slots
        leaf_cols = np.arange(leaf_capacity, dtype=np.intp)
        leaf_src = np.where(leaf_cols > leaf_at[:, None], leaf_cols - leaf_delta, leaf_cols)
        np.clip(leaf_src, 0, leaf_capacity - 1, out=leaf_src)
        self.data[rows] = self.data[block, leaf_src]
        self.n_nodes[rows] += node_delta

    def _reserve(self, capacity: int) -> None:
        """Widen every row to ``capacity`` nodes, rebasing the global ids."""
        old_capacity = self.capacity
        old_leaf_capacity = self.leaf_capacity
        grown = ParticleForest(self.split_dim.shape[0], capacity)
        for name in ("split_dim", "split_value", "left", "right", "leaf_slot"):
            getattr(grown, name)[:, :old_capacity] = getattr(self, name)
            setattr(self, name, getattr(grown, name))
        grown.data[:, :old_leaf_capacity] = self.data
        self.data = grown.data
        particles = np.arange(self.split_dim.shape[0], dtype=np.intp)[:, None]
        for name, shift in (
            ("left", capacity - old_capacity),
            ("right", capacity - old_capacity),
            ("leaf_slot", grown.leaf_capacity - old_leaf_capacity),
        ):
            ids = getattr(self, name)
            np.add(ids, particles * shift, out=ids, where=ids >= 0)
