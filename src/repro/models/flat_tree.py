"""Flattened-array representations of the particle trees.

The dynamic tree spends essentially all of its prediction/acquisition time
descending trees: every ``predict()`` and every ALC score routes hundreds of
rows through every particle.  Doing that with per-row Python ``descend()``
loops costs a Python-level branch per (row, level, particle); lowering the
particles' ``_Node`` trees into flat NumPy arrays turns the same work into a
handful of vectorized gathers per tree *level*.

* :class:`FlatTree` compiles one ``_Node`` tree: per node ``split_dim``
  (``-1`` for leaves), ``split_value``, ``left``/``right`` child indices
  and a pre-order leaf id, and per *leaf* a row of cached posterior
  statistics in a :class:`~repro.models.leaf.LeafCacheArrays` (the
  posterior-predictive mean, variance and observation count, the
  value-independent terms of the predictive log-pdf, the sufficient
  statistics and the log marginal likelihood).  It seeds the particle
  forest and is the oracle the forest's in-place updates are tested
  against.
* :class:`ParticleForest` holds every particle's compilation as one padded
  ``(n_particles, capacity)`` array set and is the only compiled state the
  batched model keeps: each SMC update splices its stay/grow/prune moves
  and its resample into the arrays with a constant number of array
  operations, whatever the number of particles moving.
* :class:`FlatForest` is the flattened view the routing, reweight and ALC
  kernels read: one :meth:`FlatForest.route` call descends all
  ``n_particles × n_rows`` (particle, row) pairs together.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .leaf import GaussianLeafModel, LeafCacheArrays

__all__ = ["FlatTree", "FlatForest", "ParticleForest"]


class FlatTree:
    """Array-of-structs compilation of one particle tree.

    Attributes
    ----------
    split_dim:
        ``(n_nodes,)`` int array; the splitting feature of internal nodes,
        ``-1`` for leaves.
    split_value:
        ``(n_nodes,)`` float array; the threshold of internal nodes.
    left, right:
        ``(n_nodes,)`` int arrays; child node indices (``-1`` for leaves).
    leaf_slot:
        ``(n_nodes,)`` int array mapping a node index to its leaf id
        (``-1`` for internal nodes).  Leaf ids number the leaves in
        pre-order, so they are stable for a given structure.
    caches:
        :class:`~repro.models.leaf.LeafCacheArrays` with one row per leaf
        id.
    leaf_nodes:
        Leaf id -> the particle's ``_Node`` leaf, in pre-order.
    """

    __slots__ = (
        "split_dim",
        "split_value",
        "left",
        "right",
        "leaf_slot",
        "caches",
        "leaf_nodes",
        "n_nodes",
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
        leaf_nodes: list,
    ) -> None:
        self.split_dim = split_dim
        self.split_value = split_value
        self.left = left
        self.right = right
        self.leaf_slot = leaf_slot
        self.caches = caches
        self.leaf_nodes = leaf_nodes
        self.n_nodes = int(split_dim.shape[0])
        self.n_leaves = len(caches)

    @property
    def leaf_mean(self) -> np.ndarray:
        return self.caches.mean

    @property
    def leaf_count(self) -> np.ndarray:
        return self.caches.count

    @classmethod
    def compile(cls, root) -> "FlatTree":
        """Lower a ``_Node`` tree into flat arrays (pre-order numbering)."""
        split_dim: List[int] = []
        split_value: List[float] = []
        left: List[int] = []
        right: List[int] = []
        leaf_slot: List[int] = []
        leaves: List[GaussianLeafModel] = []
        leaf_nodes: List = []

        def visit(node) -> int:
            index = len(split_dim)
            if node.leaf is not None:
                split_dim.append(-1)
                split_value.append(0.0)
                left.append(-1)
                right.append(-1)
                leaf_slot.append(len(leaves))
                leaves.append(node.leaf)
                leaf_nodes.append(node)
            else:
                split_dim.append(int(node.split_dim))
                split_value.append(float(node.split_value))
                left.append(-1)
                right.append(-1)
                leaf_slot.append(-1)
                left[index] = visit(node.left)
                right[index] = visit(node.right)
            return index

        visit(root)
        return cls(
            split_dim=np.asarray(split_dim, dtype=np.intp),
            split_value=np.asarray(split_value, dtype=float),
            left=np.asarray(left, dtype=np.intp),
            right=np.asarray(right, dtype=np.intp),
            leaf_slot=np.asarray(leaf_slot, dtype=np.intp),
            caches=LeafCacheArrays.from_leaves(leaves),
            leaf_nodes=leaf_nodes,
        )

    def route(self, X: np.ndarray) -> np.ndarray:
        """Leaf ids of every row of ``X``, descending level-by-level.

        All rows start at the root; at each iteration the rows still sitting
        on an internal node are compared against that node's threshold in
        one vectorized gather, and rows that reach a leaf drop out.  The
        loop count is the tree depth, not the number of rows.
        """
        X = np.atleast_2d(X)
        n = X.shape[0]
        nodes = np.zeros(n, dtype=np.intp)
        active = np.flatnonzero(self.split_dim[nodes] >= 0)
        while active.size:
            current = nodes[active]
            dims = self.split_dim[current]
            go_left = X[active, dims] <= self.split_value[current]
            nodes[active] = np.where(go_left, self.left[current], self.right[current])
            still_internal = self.split_dim[nodes[active]] >= 0
            active = active[still_internal]
        return self.leaf_slot[nodes]


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

    def predict_components(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-particle predictive ``(mean, variance)``, each ``(n_particles, n_rows)``."""
        leaf_ids = self.route(X)
        return self.caches.mean[leaf_ids], self.caches.variance[leaf_ids]


class ParticleForest:
    """Every particle's compiled tree, one padded row per particle.

    ``split_dim``, ``split_value``, ``left``, ``right`` and ``leaf_slot``
    are ``(n_particles, capacity)`` arrays and ``data`` is the
    ``(n_particles, leaf_capacity, 9)`` leaf-cache block.  Row ``p`` holds
    particle ``p`` in pre-order, exactly as :meth:`FlatTree.compile` lays
    it out, except that child pointers are global node ids
    (``p * capacity + local``) and leaf slots global leaf ids
    (``p * leaf_capacity + local``); ``-1`` sentinels stay ``-1``.  The
    flattened arrays are therefore a valid :class:`FlatForest`
    (:meth:`view`), and local indices are ``global % capacity``.  Entries
    past a row's ``n_nodes`` live nodes are padding no root reaches.

    ``leaf_nodes[p]`` maps particle ``p``'s local leaf ids to its ``_Node``
    leaves.  The lists are never mutated in place — a change installs a
    new list — so resample duplicates and fantasy copies share them
    freely.

    Every update is a constant number of array operations, however many
    particles move: stays are one write into ``data``, all
    grows one splice (:meth:`grow`), all prunes one splice (:meth:`prune`)
    and a resample one row gather (:meth:`gather`).  The capacity doubles
    when a grow would overflow it, so the rows are compiled from the
    ``_Node`` trees only when the forest is first built.
    """

    __slots__ = (
        "split_dim",
        "split_value",
        "left",
        "right",
        "leaf_slot",
        "data",
        "n_nodes",
        "leaf_nodes",
    )

    #: Smallest row capacity (nodes); the initial capacity is the smallest
    #: power of two at least this large and twice the biggest tree.
    MIN_CAPACITY = 32

    _ARRAYS = ("split_dim", "split_value", "left", "right", "leaf_slot", "data", "n_nodes")

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
        self.leaf_nodes: List[list] = [[] for _ in range(n_particles)]

    @property
    def capacity(self) -> int:
        return int(self.split_dim.shape[1])

    @property
    def leaf_capacity(self) -> int:
        return int(self.data.shape[1])

    @classmethod
    def compile(cls, roots: Sequence) -> "ParticleForest":
        """Compile every particle's ``_Node`` tree into a fresh forest."""
        trees = [FlatTree.compile(root) for root in roots]
        node_counts = np.asarray([tree.n_nodes for tree in trees], dtype=np.intp)
        leaf_counts = (node_counts + 1) // 2
        capacity = cls.MIN_CAPACITY
        while capacity < 2 * int(node_counts.max()):
            capacity *= 2
        forest = cls(len(trees), capacity)
        leaf_capacity = forest.leaf_capacity
        particles = np.arange(len(trees), dtype=np.intp)
        rows = np.repeat(particles, node_counts)
        cols = np.arange(rows.shape[0], dtype=np.intp) - np.repeat(
            np.cumsum(node_counts) - node_counts, node_counts
        )
        forest.split_dim[rows, cols] = np.concatenate([t.split_dim for t in trees])
        forest.split_value[rows, cols] = np.concatenate([t.split_value for t in trees])
        for name, stride in (
            ("left", capacity),
            ("right", capacity),
            ("leaf_slot", leaf_capacity),
        ):
            local = np.concatenate([getattr(t, name) for t in trees])
            np.add(local, rows * stride, out=local, where=local >= 0)
            getattr(forest, name)[rows, cols] = local
        leaf_rows = np.repeat(particles, leaf_counts)
        leaf_cols = np.arange(leaf_rows.shape[0], dtype=np.intp) - np.repeat(
            np.cumsum(leaf_counts) - leaf_counts, leaf_counts
        )
        forest.data[leaf_rows, leaf_cols] = np.concatenate(
            [t.caches.data for t in trees], axis=0
        )
        forest.n_nodes = node_counts
        forest.leaf_nodes = [tree.leaf_nodes for tree in trees]
        return forest

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

    def copy(self) -> "ParticleForest":
        """An independent forest; the (never mutated) leaf-node lists are shared."""
        clone = ParticleForest.__new__(ParticleForest)
        for name in self._ARRAYS:
            setattr(clone, name, getattr(self, name).copy())
        clone.leaf_nodes = list(self.leaf_nodes)
        return clone

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
        nodes = self.leaf_nodes
        self.leaf_nodes = [nodes[j] for j in chosen.tolist()]

    def grow(
        self,
        rows: np.ndarray,
        nodes: np.ndarray,
        leaf_ids: np.ndarray,
        split_dims: np.ndarray,
        split_values: np.ndarray,
        child_rows: np.ndarray,
    ) -> None:
        """Split leaf node ``nodes[k]`` (leaf id ``leaf_ids[k]``) of row ``rows[k]``.

        The node becomes internal on ``(split_dims[k], split_values[k])``;
        its children land at ``nodes[k] + 1``/``+ 2`` with leaf ids
        ``leaf_ids[k]``/``+ 1`` and cache rows ``child_rows[k, 0]``/``[k, 1]``
        (``child_rows`` is ``(len(rows), 2, 9)``).  Later nodes shift by
        +2 and later leaves by +1 — one splice for all rows.
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

    def prune(
        self,
        rows: np.ndarray,
        parents: np.ndarray,
        leaf_ids: np.ndarray,
        merged_rows: np.ndarray,
    ) -> None:
        """Collapse internal node ``parents[k]`` of row ``rows[k]`` into a leaf.

        Both children of each parent are leaves; ``leaf_ids[k]`` is the
        *left* child's id, which the merged leaf takes over with cache row
        ``merged_rows[k]``.  Later nodes shift by -2 and later leaves by
        -1 — one splice for all rows.
        """
        self._shift(rows, parents, -2, leaf_ids, -1)
        self.split_dim[rows, parents] = -1
        self.split_value[rows, parents] = 0.0
        self.left[rows, parents] = -1
        self.right[rows, parents] = -1
        self.leaf_slot[rows, parents] = rows * self.leaf_capacity + leaf_ids
        self.data[rows, leaf_ids] = merged_rows

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
