"""Tunable parameters and search spaces for the SPAPT benchmarks.

Each SPAPT search problem is defined by a kernel, a (fixed) input size and a
set of tunable integer parameters.  Following the paper (Section 4.2) we
consider the integer parameters only — loop unroll factors, cache tile
sizes and register tile factors — and leave binary flags and input size
fixed so the comparison against Balaprakash et al. is like-for-like.

A configuration is a plain tuple of integers, one entry per parameter in
declaration order; this is what the profiler, the models and the learner all
pass around.  The :class:`SearchSpace` converts configurations to

* :class:`~repro.machine.cost_model.TransformConfiguration` objects consumed
  by the machine cost model and the transformation passes, and
* normalised feature vectors (scaled and centred, as in Section 4.5 of the
  paper) consumed by the surrogate models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from collections.abc import Mapping, Set
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..machine.cost_model import TransformConfiguration

__all__ = ["ParameterKind", "TunableParameter", "SearchSpace"]


class ParameterKind(str, Enum):
    """The three kinds of integer tunables used by the paper."""

    UNROLL = "unroll"
    CACHE_TILE = "cache_tile"
    REGISTER_TILE = "register_tile"


@dataclass(frozen=True)
class TunableParameter:
    """One tunable integer parameter bound to a loop of the kernel.

    Attributes
    ----------
    name:
        Human-readable name, e.g. ``"U_i1"`` or ``"T_j2"``.
    kind:
        Which transformation the parameter controls.
    loop_var:
        The loop variable of the base kernel the transformation applies to.
    values:
        The ordered tuple of admissible values (all positive integers).
    """

    name: str
    kind: ParameterKind
    loop_var: str
    values: Tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(int(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise ValueError(f"parameter {self.name!r} has no admissible values")
        if any(v < 1 for v in values):
            raise ValueError(f"parameter {self.name!r} has non-positive values")
        if len(set(values)) != len(values):
            raise ValueError(f"parameter {self.name!r} has duplicate values")

    @property
    def cardinality(self) -> int:
        return len(self.values)

    def value_at(self, index: int) -> int:
        """The parameter value at position ``index`` of the value list."""
        return self.values[index]

    def index_of(self, value: int) -> int:
        """Position of ``value`` in the value list (raises if absent)."""
        try:
            return self.values.index(int(value))
        except ValueError as exc:
            raise ValueError(
                f"{value} is not an admissible value of parameter {self.name!r}"
            ) from exc

    @classmethod
    def unroll(cls, name: str, loop_var: str, max_factor: int = 32) -> "TunableParameter":
        """An unroll factor parameter ranging over 1..max_factor."""
        return cls(name, ParameterKind.UNROLL, loop_var, tuple(range(1, max_factor + 1)))

    @classmethod
    def register_tile(
        cls, name: str, loop_var: str, max_factor: int = 16
    ) -> "TunableParameter":
        """A register-tile (unroll-and-jam) factor ranging over 1..max_factor."""
        return cls(
            name, ParameterKind.REGISTER_TILE, loop_var, tuple(range(1, max_factor + 1))
        )

    @classmethod
    def cache_tile(
        cls, name: str, loop_var: str, values: Optional[Sequence[int]] = None
    ) -> "TunableParameter":
        """A cache-tile size parameter.

        The default value set (1 plus multiples of 16 up to 1024) mirrors the
        tile ranges SPAPT exposes; 1 means "do not tile this loop".
        """
        if values is None:
            values = (1,) + tuple(range(16, 1025, 16))
        return cls(name, ParameterKind.CACHE_TILE, loop_var, tuple(values))


class SearchSpace:
    """The Cartesian product of a list of tunable parameters."""

    def __init__(self, parameters: Sequence[TunableParameter]) -> None:
        if not parameters:
            raise ValueError("a search space needs at least one parameter")
        names = [p.name for p in parameters]
        if len(names) != len(set(names)):
            raise ValueError("duplicate parameter names in search space")
        self._parameters: Tuple[TunableParameter, ...] = tuple(parameters)
        # Admissible-value sets for O(1) validation, and the per-dimension
        # midpoint/scale of the feature normalisation, precomputed once so
        # normalising a batch of configurations is two array ops.
        self._value_sets: Tuple[frozenset, ...] = tuple(
            frozenset(param.values) for param in self._parameters
        )
        d = len(self._parameters)
        mids = np.empty(d, dtype=float)
        scales = np.empty(d, dtype=float)
        # The array-native draw table: per-parameter cardinalities and a
        # (d, max_card) value table, padded with zeros that a sampled index
        # never reaches.
        self._cardinalities = np.array(
            [p.cardinality for p in self._parameters], dtype=np.int64
        )
        self._value_table = np.zeros((d, self._cardinalities.max()), dtype=np.int64)
        for i, param in enumerate(self._parameters):
            lo = param.values[0]
            hi = param.values[-1]
            mids[i] = (lo + hi) / 2.0
            # Standard deviation of a uniform distribution over [lo, hi].
            scales[i] = (hi - lo) / math.sqrt(12.0) if hi > lo else 1.0
            self._value_table[i, : param.cardinality] = param.values
        self._feature_mid = mids
        self._feature_scale = scales
        # The normalised value of every admissible value, laid out like the
        # value table and computed with normalize_many's own expression, so
        # a drawn index row gathers the features normalize_many would give.
        self._feature_table = (self._value_table - mids[:, None]) / scales[:, None]
        self._dims = np.arange(d)
        self._size = math.prod(int(card) for card in self._cardinalities)
        # Batch validation keys: value v of parameter j is admissible iff
        # j * stride + v is in the sorted key table.  Values are >= 1, so
        # clipping a value into [0, stride] maps every inadmissible value to
        # a key that is not in the table; the trailing -1 lets an index one
        # past the end compare unequal.
        self._key_stride = int(self._value_table.max()) + 1
        self._key_offsets = np.arange(d, dtype=np.int64) * self._key_stride
        keys = (self._value_table + self._key_offsets[:, None])[self._value_table > 0]
        self._admissible_keys = np.append(np.sort(keys), -1)

    def __reduce__(self):
        # Pickle only the parameters: the lookup tables are rebuilt on load.
        return (SearchSpace, (self._parameters,))

    def __setstate__(self, state: dict) -> None:
        # Pickles written before __reduce__ existed carry the instance
        # dict of an older layout; rebuild from its parameters.
        self.__init__(state["_parameters"])

    @property
    def parameters(self) -> Tuple[TunableParameter, ...]:
        return self._parameters

    @property
    def dimensions(self) -> int:
        return len(self._parameters)

    @property
    def size(self) -> int:
        """Total number of configurations (product of cardinalities)."""
        return self._size

    def parameter(self, name: str) -> TunableParameter:
        for param in self._parameters:
            if param.name == name:
                return param
        raise KeyError(f"no parameter named {name!r}")

    # ------------------------------------------------------------ validation

    def validate(self, configuration: Sequence[int]) -> Tuple[int, ...]:
        """Check a configuration and return it as a canonical tuple."""
        values = tuple(int(v) for v in configuration)
        if len(values) != self.dimensions:
            raise ValueError(
                f"configuration has {len(values)} values, expected {self.dimensions}"
            )
        for value, value_set, param in zip(values, self._value_sets, self._parameters):
            if value not in value_set:
                raise ValueError(
                    f"{value} is not admissible for parameter {param.name!r}"
                )
        return values

    def __contains__(self, configuration: Sequence[int]) -> bool:
        try:
            self.validate(configuration)
        except ValueError:
            return False
        return True

    # -------------------------------------------------------------- sampling

    def default_configuration(self) -> Tuple[int, ...]:
        """The baseline configuration: every parameter at its first value.

        With the constructors above the first value of every parameter is 1,
        i.e. "apply no transformation" — the ``-O2``-only baseline the paper
        compiles against.
        """
        return tuple(param.values[0] for param in self._parameters)

    def random_configuration(self, rng: np.random.Generator) -> Tuple[int, ...]:
        """One configuration sampled uniformly at random."""
        return self._draw_block(1, rng)[0][0]

    def _draw_block(
        self, rows: int, rng: np.random.Generator
    ) -> Tuple[List[Tuple[int, ...]], np.ndarray]:
        """``rows`` uniform configurations from one ``(rows, d)`` index draw,
        and the index block itself.

        Draw-order contract: ``Generator.integers(cardinalities, size=(k, d))``
        consumes the bit stream exactly like ``k * d`` scalar
        ``integers(cardinality)`` calls in row-major order (parameter by
        parameter within a row), so a block draw leaves the generator in
        the same state, and yields the same rows, as drawing one
        configuration at a time.  Changing this order changes every seeded
        trajectory.
        """
        indices = rng.integers(self._cardinalities, size=(rows, self.dimensions))
        values = self._value_table[self._dims, indices]
        return [tuple(row) for row in values.tolist()], indices

    def sample_distinct(
        self, count: int, rng: np.random.Generator, exclude: Iterable[Sequence[int]] = ()
    ) -> List[Tuple[int, ...]]:
        """Sample ``count`` distinct configurations uniformly at random.

        ``exclude`` lists configurations that must not be returned (e.g. the
        training examples already seen, so the candidate pool stays fresh).
        A set or mapping keyed by configuration tuples is used as-is for
        membership tests; any other iterable is canonicalised into a set.
        Raises ``ValueError`` if the space cannot supply that many distinct
        configurations.
        """
        return self._sample_distinct(count, rng, exclude)[0]

    def sample_distinct_featurized(
        self, count: int, rng: np.random.Generator, exclude: Iterable[Sequence[int]] = ()
    ) -> Tuple[List[Tuple[int, ...]], np.ndarray]:
        """:meth:`sample_distinct`'s configurations and their ``(count, d)``
        feature matrix.

        The same generator calls and the same configurations as
        :meth:`sample_distinct`; each drawn row's features are gathered from
        the feature table at the index row it was drawn from, bitwise equal
        to :meth:`normalize_many` of the configurations.
        """
        configurations, index_blocks = self._sample_distinct(count, rng, exclude)
        blocks = [self._feature_table[self._dims, block] for block in index_blocks]
        drawn = sum(block.shape[0] for block in blocks)
        if drawn < len(configurations):
            # The enumeration fallback of tiny spaces draws no index rows.
            blocks.append(self.normalize_many(configurations[drawn:]))
        if not blocks:
            return configurations, np.empty((0, self.dimensions))
        return configurations, blocks[0] if len(blocks) == 1 else np.concatenate(blocks)

    def _sample_distinct(
        self, count: int, rng: np.random.Generator, exclude: Iterable[Sequence[int]]
    ) -> Tuple[List[Tuple[int, ...]], List[np.ndarray]]:
        """The distinct sample, and the index rows of its drawn members in
        sample order (one block per round; members the enumeration fallback
        added follow them and have no index row)."""
        if count < 0:
            raise ValueError("count cannot be negative")
        if isinstance(exclude, (Set, Mapping)):
            excluded = exclude
        else:
            excluded = {tuple(int(v) for v in cfg) for cfg in exclude}
        available = self.size - len(excluded)
        if count > available:
            raise ValueError(
                f"cannot sample {count} distinct configurations: only {available} available"
            )
        chosen: set[Tuple[int, ...]] = set()
        result: List[Tuple[int, ...]] = []
        index_blocks: List[np.ndarray] = []
        # Rejection sampling is efficient because SPAPT spaces are many orders
        # of magnitude larger than any sample we draw; fall back to exhaustive
        # enumeration only for tiny synthetic spaces used in tests.  Each
        # round draws exactly as many rows as a one-at-a-time loop would
        # still be guaranteed to draw, so the generator ends in the same
        # state as with per-configuration draws.
        attempts = 0
        max_attempts = max(1000, count * 50)
        while len(result) < count and attempts < max_attempts:
            need = min(count - len(result), max_attempts - attempts)
            attempts += need
            candidates, indices = self._draw_block(need, rng)
            kept = []
            for row, candidate in enumerate(candidates):
                if candidate in excluded or candidate in chosen:
                    continue
                chosen.add(candidate)
                result.append(candidate)
                kept.append(row)
            if len(kept) == need:
                index_blocks.append(indices)
            elif kept:
                index_blocks.append(indices[kept])
        if len(result) < count:
            for candidate in self._enumerate():
                if candidate in excluded or candidate in chosen:
                    continue
                chosen.add(candidate)
                result.append(candidate)
                if len(result) == count:
                    break
        return result, index_blocks

    def _enumerate(self) -> Iterator[Tuple[int, ...]]:
        """Enumerate every configuration (only sensible for tiny spaces)."""
        def recurse(prefix: Tuple[int, ...], remaining: Tuple[TunableParameter, ...]):
            if not remaining:
                yield prefix
                return
            head, tail = remaining[0], remaining[1:]
            for value in head.values:
                yield from recurse(prefix + (value,), tail)

        yield from recurse((), self._parameters)

    # ---------------------------------------------------------- conversions

    def to_transform_configuration(
        self, configuration: Sequence[int]
    ) -> TransformConfiguration:
        """Lower a configuration tuple onto transformation parameters."""
        values = self.validate(configuration)
        unroll: Dict[str, int] = {}
        cache_tiles: Dict[str, int] = {}
        register_tiles: Dict[str, int] = {}
        for value, param in zip(values, self._parameters):
            if param.kind is ParameterKind.UNROLL:
                unroll[param.loop_var] = unroll.get(param.loop_var, 1) * value
            elif param.kind is ParameterKind.CACHE_TILE:
                cache_tiles[param.loop_var] = value
            else:
                register_tiles[param.loop_var] = (
                    register_tiles.get(param.loop_var, 1) * value
                )
        return TransformConfiguration(
            unroll=unroll, cache_tiles=cache_tiles, register_tiles=register_tiles
        )

    def normalize(self, configuration: Sequence[int]) -> np.ndarray:
        """Scale and centre a configuration into model feature space.

        Each parameter is mapped to ``(value - midpoint) / scale`` where the
        midpoint and scale are those of a uniform distribution over the
        parameter's admissible values — the "scaling and centring to
        something similar to the Standard Normal Distribution" described in
        Section 4.5 of the paper.
        """
        return self.normalize_many([configuration])[0]

    def normalize_many(self, configurations: Sequence[Sequence[int]]) -> np.ndarray:
        """Normalise a batch of configurations into a 2-D feature matrix.

        The batch is validated column-wise against the admissible values
        with one ``searchsorted`` and normalised with a single broadcast over the precomputed
        midpoint/scale vectors; an invalid row raises the same
        ``ValueError`` as :meth:`validate`.
        """
        matrix = self._validated_matrix(configurations)
        return (matrix - self._feature_mid) / self._feature_scale

    def _validated_matrix(self, configurations: Sequence[Sequence[int]]) -> np.ndarray:
        """The configurations as a validated ``(n, d)`` integer matrix."""
        if not len(configurations):
            raise ValueError("normalize_many() needs at least one configuration")
        try:
            matrix = np.asarray(configurations, dtype=np.int64)
        except (ValueError, TypeError, OverflowError):
            matrix = None
        if matrix is None or matrix.ndim != 2 or matrix.shape[1] != self.dimensions:
            # Ragged, wrong-arity or non-integer rows: the per-row check
            # names the first offending row.
            return np.asarray([self.validate(cfg) for cfg in configurations], dtype=np.int64)
        keys = np.clip(matrix, 0, self._key_stride) + self._key_offsets
        positions = np.searchsorted(self._admissible_keys[:-1], keys)
        admissible = self._admissible_keys[positions] == keys
        if not admissible.all():
            # The first offending entry in row-major order is the one
            # validate() reports when checking the rows one by one.
            row, column = np.argwhere(~admissible)[0]
            raise ValueError(
                f"{int(matrix[row, column])} is not admissible for parameter "
                f"{self._parameters[column].name!r}"
            )
        return matrix

    def describe(self) -> str:
        """A human-readable multi-line description of the space."""
        lines = [f"search space with {self.dimensions} parameters, {self.size:.3g} points"]
        for param in self._parameters:
            lines.append(
                f"  {param.name:>8} ({param.kind.value:>13}) on loop {param.loop_var:>4}: "
                f"{param.cardinality} values in [{param.values[0]}, {param.values[-1]}]"
            )
        return "\n".join(lines)
