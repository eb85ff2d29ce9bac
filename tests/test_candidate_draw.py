"""The draw-order contract of the array-native candidate pool.

``SearchSpace.sample_distinct`` draws whole ``(rows, d)`` index blocks and
``normalize_many`` validates and normalises a whole configuration matrix.
Every seeded trajectory in the repository depends on those producing
exactly what the historical one-configuration-at-a-time code produced, and
on leaving the generator in exactly the same state.  The historical scalar
loop is kept below as the oracle.  The featurized draw
(``sample_distinct_featurized``, ``CandidatePool.draw_featurized``) must
return the same configurations, leave the same generator state, and give
features bitwise equal to ``normalize_many``.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import pathlib
import pickle
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidatePool
from repro.spapt.search_space import ParameterKind, SearchSpace, TunableParameter
from repro.spapt.suite import benchmark_names, get_benchmark

# --------------------------------------------------------------- the oracle


def oracle_random_configuration(space, rng):
    """One scalar ``integers(cardinality)`` draw per parameter."""
    return tuple(
        param.values[int(rng.integers(param.cardinality))]
        for param in space.parameters
    )


def oracle_sample_distinct(space, count, rng, exclude=()):
    """Rejection sampling one configuration per attempt, then enumeration."""
    excluded = {tuple(int(v) for v in cfg) for cfg in exclude}
    size = math.prod(param.cardinality for param in space.parameters)
    if count > size - len(excluded):
        raise ValueError("not enough configurations")
    chosen = set()
    result = []
    attempts = 0
    max_attempts = max(1000, count * 50)
    while len(result) < count and attempts < max_attempts:
        attempts += 1
        candidate = oracle_random_configuration(space, rng)
        if candidate in excluded or candidate in chosen:
            continue
        chosen.add(candidate)
        result.append(candidate)
    if len(result) < count:
        for candidate in itertools.product(*(p.values for p in space.parameters)):
            if candidate in excluded or candidate in chosen:
                continue
            chosen.add(candidate)
            result.append(candidate)
            if len(result) == count:
                break
    return result


def oracle_normalize(space, configuration):
    """The historical per-row normalisation, from the parameters alone."""
    values = np.asarray(space.validate(configuration), dtype=float)
    mids = np.array([(p.values[0] + p.values[-1]) / 2.0 for p in space.parameters])
    scales = np.array(
        [
            (p.values[-1] - p.values[0]) / math.sqrt(12.0)
            if p.values[-1] > p.values[0]
            else 1.0
            for p in space.parameters
        ]
    )
    return (values - mids) / scales


def assert_same_draws(space, count, seed, exclude=()):
    """New and oracle sampling agree on the list and the generator state;
    so does the featurized draw, whose features are ``normalize_many``'s."""
    new_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    sample = space.sample_distinct(count, new_rng, exclude=exclude)
    expected = oracle_sample_distinct(space, count, oracle_rng, exclude=exclude)
    assert sample == expected
    assert all(type(v) is int for cfg in sample for v in cfg)
    assert new_rng.bit_generator.state == oracle_rng.bit_generator.state
    featurized_rng = np.random.default_rng(seed)
    configurations, features = space.sample_distinct_featurized(
        count, featurized_rng, exclude=exclude
    )
    assert configurations == expected
    assert featurized_rng.bit_generator.state == oracle_rng.bit_generator.state
    assert features.shape == (count, space.dimensions)
    if count:
        assert_bitwise_equal(features, space.normalize_many(expected))
    return sample


def assert_bitwise_equal(actual, expected):
    """Same shape, dtype and bits (so ``-0.0`` differs from ``0.0``)."""
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


# -------------------------------------------------------------- fixtures


SPAPT_SPACES = {name: get_benchmark(name).search_space for name in benchmark_names()}


def _custom_example_space():
    """The search space of ``examples/custom_kernel_autotuning.py``."""
    root = pathlib.Path(__file__).resolve().parent.parent
    path = root / "examples" / "custom_kernel_autotuning.py"
    spec = importlib.util.spec_from_file_location("custom_kernel_example", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BlurProgram().search_space


def small_space(cardinalities):
    return SearchSpace(
        [
            TunableParameter(
                f"p{i}", ParameterKind.UNROLL, "i", tuple(range(1, card + 1))
            )
            for i, card in enumerate(cardinalities)
        ]
    )


# ------------------------------------------------------------- sampling


@pytest.mark.parametrize("name", sorted(SPAPT_SPACES))
@pytest.mark.parametrize("count", [1, 7, 200])
def test_sample_distinct_matches_oracle_on_spapt_spaces(name, count):
    space = SPAPT_SPACES[name]
    seen = oracle_sample_distinct(space, 50, np.random.default_rng(99))
    for seed in (0, 1, 2):
        assert_same_draws(space, count, seed)
        # The candidate pool passes its observation-count dict as is.
        assert_same_draws(space, count, seed, exclude=dict.fromkeys(seen, 1))
        assert_same_draws(space, count, seed, exclude=list(seen))


@pytest.mark.parametrize("name", sorted(SPAPT_SPACES))
def test_random_configuration_matches_oracle(name):
    space = SPAPT_SPACES[name]
    new_rng = np.random.default_rng(5)
    oracle_rng = np.random.default_rng(5)
    for _ in range(20):
        assert space.random_configuration(new_rng) == oracle_random_configuration(
            space, oracle_rng
        )
    assert new_rng.bit_generator.state == oracle_rng.bit_generator.state
    # The state stays aligned for whatever draws next (e.g. a model seed).
    assert new_rng.integers(2 ** 63) == oracle_rng.integers(2 ** 63)


@given(
    cardinalities=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    data=st.data(),
    seed=st.integers(0, 2 ** 32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_sample_distinct_matches_oracle_on_small_spaces(cardinalities, data, seed):
    space = small_space(cardinalities)
    everything = list(itertools.product(*(p.values for p in space.parameters)))
    exclude = data.draw(st.lists(st.sampled_from(everything), unique=True))
    count = data.draw(st.integers(0, space.size - len(exclude)))
    assert_same_draws(space, count, seed, exclude=set(exclude))


def test_rejection_with_large_exclusions():
    space = small_space([4, 3, 2])
    everything = list(itertools.product(*(p.values for p in space.parameters)))
    for seed in range(5):
        sample = assert_same_draws(space, 12, seed, exclude=everything[::2])
        assert not set(sample) & set(everything[::2])


def test_count_equal_to_size():
    space = small_space([4, 3, 2])
    for seed in range(5):
        sample = assert_same_draws(space, space.size, seed)
        assert sorted(sample) == sorted(
            itertools.product(*(p.values for p in space.parameters))
        )


def test_exhaustive_fallback(monkeypatch):
    """Almost everything excluded: 1 000 attempts miss the last point."""
    space = small_space([10, 10, 10, 5])
    everything = list(itertools.product(*(p.values for p in space.parameters)))
    enumerations = []
    enumerate_space = space._enumerate

    def spy():
        enumerations.append(1)
        return enumerate_space()

    monkeypatch.setattr(space, "_enumerate", spy)
    fired = 0
    for seed in range(10):
        free = everything[seed * 311]
        exclude = set(everything) - {free}
        before = len(enumerations)
        assert assert_same_draws(space, 1, seed, exclude=exclude) == [free]
        fired += len(enumerations) > before
    assert fired > 0


def test_too_many_requested_raises():
    space = small_space([2, 2])
    with pytest.raises(ValueError, match="only 3 available"):
        space.sample_distinct(4, np.random.default_rng(0), exclude={(1, 1)})


# ------------------------------------------------------------ features


@pytest.mark.parametrize("name", sorted(SPAPT_SPACES) + ["custom-example"])
def test_feature_table_is_normalize_many_bitwise(name):
    """Every admissible value of every parameter: the table entry is the
    value's ``normalize_many`` feature, to the bit."""
    space = _custom_example_space() if name == "custom-example" else SPAPT_SPACES[name]
    base = list(space.default_configuration())
    for j, param in enumerate(space.parameters):
        configurations = [
            tuple(base[:j] + [value] + base[j + 1:]) for value in param.values
        ]
        column = space.normalize_many(configurations)[:, j]
        assert_bitwise_equal(space._feature_table[j, : param.cardinality], column)


@pytest.mark.parametrize("name", sorted(SPAPT_SPACES))
def test_pool_draw_featurized_matches_draw(name):
    """Fresh and revisitable rows alike: the candidates and generator
    state of the unfeaturized draw (``sample_distinct`` excluding the seen
    configurations, then the revisitable ones) and their
    ``normalize_many`` features."""
    space = SPAPT_SPACES[name]
    for revisit in (False, True):
        pool = CandidatePool(space, max_observations=3, revisit=revisit)
        seen = oracle_sample_distinct(space, 12, np.random.default_rng(4))
        for i, cfg in enumerate(seen):
            pool.record(cfg, 1 + i % 4)
        # Some revisitable rows are cached, the rest are cache misses.
        pool.remember_features(seen[:5], space.normalize_many(seen[:5]))
        for seed in range(3):
            plain_rng = np.random.default_rng(seed)
            featurized_rng = np.random.default_rng(seed)
            candidates = space.sample_distinct(
                20, plain_rng, exclude=pool.observation_counts
            ) + pool.revisitable()
            drawn, features = pool.draw_featurized(20, featurized_rng)
            assert drawn == candidates
            assert plain_rng.bit_generator.state == featurized_rng.bit_generator.state
            assert_bitwise_equal(features, space.normalize_many(candidates))


def test_pool_features_fill_and_serve_the_cache(mm_benchmark):
    space = mm_benchmark.search_space
    pool = CandidatePool(space, max_observations=3, revisit=True)
    configurations, features = space.sample_distinct_featurized(
        70, np.random.default_rng(5)
    )
    pool.remember_features(configurations[:40], features[:40])
    # Hits, misses and a repeated configuration in one call.
    wanted = configurations[30:70] + configurations[:3] + configurations[65:70]
    assert_bitwise_equal(pool.features(wanted), space.normalize_many(wanted))
    assert len(pool._feature_rows) == 70
    assert_bitwise_equal(pool.features(configurations), features)


def test_pickled_pool_rebuilds_its_feature_cache(mm_benchmark):
    """The cache is derived state: not pickled, rebuilt from the counts."""
    space = mm_benchmark.search_space
    pool = CandidatePool(space, max_observations=3, revisit=True)
    configurations, features = space.sample_distinct_featurized(
        10, np.random.default_rng(7)
    )
    for cfg in configurations:
        pool.record(cfg)
    pool.remember_features(configurations, features)
    blob = pickle.dumps(pool)
    assert b"_feature_rows" not in blob and b"_feature_matrix" not in blob
    restored = pickle.loads(blob)
    assert restored._feature_rows.keys() == set(configurations)
    assert_bitwise_equal(restored.features(configurations), features)
    draws = [p.draw_featurized(5, np.random.default_rng(9)) for p in (pool, restored)]
    assert draws[0][0] == draws[1][0]
    assert_bitwise_equal(draws[0][1], draws[1][1])
    # A pool pickled before the cache existed: a bare instance dict.
    old = CandidatePool.__new__(CandidatePool)
    old.__setstate__(
        {"_space": space, "_max_observations": 3, "_revisit": True,
         "_counts": dict.fromkeys(configurations, 1)}
    )
    assert_bitwise_equal(old.features(configurations), features)


@pytest.mark.parametrize("name", sorted(SPAPT_SPACES))
def test_features_many_bitwise_equal_to_row_normalize(name):
    benchmark = get_benchmark(name)
    space = benchmark.search_space
    configurations = oracle_sample_distinct(space, 64, np.random.default_rng(3))
    configurations.append(space.default_configuration())
    expected = np.vstack([oracle_normalize(space, cfg) for cfg in configurations])
    assert np.array_equal(benchmark.features_many(configurations), expected)
    assert np.array_equal(space.normalize_many(configurations), expected)
    for row, cfg in enumerate(configurations[:5]):
        assert np.array_equal(benchmark.features(cfg), expected[row])
        assert np.array_equal(space.normalize(cfg), expected[row])


def _validate_error(space, configuration):
    with pytest.raises(ValueError) as info:
        space.validate(configuration)
    return str(info.value)


def test_wrong_arity_row_raises_validate_error(mm_benchmark):
    space = mm_benchmark.search_space
    good = space.default_configuration()
    short = good[:-1]
    message = _validate_error(space, short)
    assert "expected 7" in message
    long = good + (1,)
    for batch, offender in (([good, short, good], short), ([long], long)):
        with pytest.raises(ValueError) as info:
            mm_benchmark.features_many(batch)
        assert str(info.value) == _validate_error(space, offender)
    with pytest.raises(ValueError, match="expected 7"):
        mm_benchmark.features(short)


def test_inadmissible_value_raises_named_error(mm_benchmark):
    space = mm_benchmark.search_space
    good = list(space.default_configuration())
    bad_tile = good.copy()
    bad_tile[3] = 17  # T_i admits 1, 16, 32, ...
    bad_unroll = good.copy()
    bad_unroll[0] = 31  # U_i admits 1..30
    message = _validate_error(space, bad_tile)
    assert message == "17 is not admissible for parameter 'T_i'"
    with pytest.raises(ValueError) as info:
        space.normalize_many([good, bad_tile, bad_unroll])
    assert str(info.value) == message
    # Both offences in one row: the first parameter is named, as validate does.
    both = bad_tile.copy()
    both[0] = 31
    with pytest.raises(ValueError) as info:
        mm_benchmark.features_many([good, both])
    assert str(info.value) == _validate_error(space, both)
    assert "'U_i'" in str(info.value)
    with pytest.raises(ValueError, match="'T_i'"):
        mm_benchmark.features(bad_tile)


@given(
    rows=st.lists(
        st.tuples(
            st.integers(-2, 40),
            st.sampled_from([0, 1, 15, 16, 32, 33, 64, 65, 2 ** 40, 2 ** 70]),
            st.integers(-1, 6),
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=150, deadline=None)
def test_normalize_many_accepts_exactly_what_validate_accepts(rows):
    space = SearchSpace(
        [
            TunableParameter.unroll("U_i", "i", max_factor=32),
            TunableParameter.cache_tile("T_j", "j", values=(64, 1, 32, 16)),
            TunableParameter.register_tile("RT_i", "i", max_factor=4),
        ]
    )
    first_error = None
    for row in rows:
        try:
            space.validate(row)
        except ValueError as exc:
            first_error = str(exc)
            break
    if first_error is None:
        expected = np.vstack([oracle_normalize(space, row) for row in rows])
        assert np.array_equal(space.normalize_many(rows), expected)
    else:
        with pytest.raises(ValueError) as info:
            space.normalize_many(rows)
        assert str(info.value) == first_error


def test_normalize_many_rejects_empty_batch(mm_benchmark):
    with pytest.raises(ValueError, match="at least one"):
        mm_benchmark.features_many([])


# ---------------------------------------------------------- the pool


class CountingMapping(Mapping):
    """A read-only exclusion mapping that counts how it is consumed."""

    def __init__(self, data):
        self._data = dict(data)
        self.iterations = 0
        self.lookups = 0

    def __getitem__(self, key):
        return self._data[key]

    def __contains__(self, key):
        self.lookups += 1
        return key in self._data

    def __iter__(self):
        self.iterations += 1
        return iter(self._data)

    def __len__(self):
        return len(self._data)


def test_sample_distinct_uses_a_mapping_without_copying_it(mm_benchmark):
    space = mm_benchmark.search_space
    seen = oracle_sample_distinct(space, 30, np.random.default_rng(1))
    exclude = CountingMapping(dict.fromkeys(seen, 1))
    sample = space.sample_distinct(25, np.random.default_rng(2), exclude=exclude)
    assert exclude.iterations == 0
    assert exclude.lookups >= len(sample)
    assert not set(sample) & set(seen)


def test_pool_draw_passes_its_own_counts(mm_benchmark, monkeypatch):
    space = mm_benchmark.search_space
    pool = CandidatePool(space, max_observations=3, revisit=True)
    for cfg in oracle_sample_distinct(space, 10, np.random.default_rng(4)):
        pool.record(cfg)
    received = []
    sample_distinct_featurized = space.sample_distinct_featurized

    def spy(count, rng, exclude=()):
        received.append(exclude)
        return sample_distinct_featurized(count, rng, exclude=exclude)

    monkeypatch.setattr(space, "sample_distinct_featurized", spy)
    candidates = pool.draw_featurized(5, np.random.default_rng(6))[0]
    assert len(received) == 1 and received[0] is pool._counts
    assert len(candidates) == 5 + 10


# ------------------------------------------------------------ pickling


def test_search_space_pickles_as_its_parameters(mm_benchmark):
    space = mm_benchmark.search_space
    blob = pickle.dumps(space)
    assert b"_feature_table" not in blob
    restored = pickle.loads(blob)
    assert restored.parameters == space.parameters
    assert restored.size == space.size
    assert_bitwise_equal(restored._feature_table, space._feature_table)
    assert restored.sample_distinct(20, np.random.default_rng(8)) == (
        space.sample_distinct(20, np.random.default_rng(8))
    )


def test_old_layout_pickle_state_rebuilds_tables(mm_benchmark):
    """A space pickled as a bare instance dict (older checkpoints)."""
    space = mm_benchmark.search_space
    restored = SearchSpace.__new__(SearchSpace)
    restored.__setstate__({"_parameters": space.parameters, "_value_sets": ()})
    assert_same_draws(restored, 10, 0)
    assert restored.size == space.size
    assert_bitwise_equal(restored._feature_table, space._feature_table)
