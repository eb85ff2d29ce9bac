"""Dataset generation: the paper's 10 000-configuration per-benchmark datasets.

Section 4.5 of the paper: each program is profiled under 10 000 distinct,
randomly selected configurations; each configuration's mean runtime is the
average of 35 executions; 7 500 configurations are marked available for
training and the remaining 2 500 form the test set.

:func:`generate_dataset` reproduces that pipeline against the simulated
substrate (scaled down by default — the counts are parameters).  The
resulting :class:`Dataset` carries everything the experiments need: raw
observations, mean runtimes, per-configuration variances, compile times and
normalised features, plus the profiling cost that generating the dataset
would have charged (used by Table 2 and the motivation figures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..measurement.profiler import Profiler
from ..measurement.stats import SampleSummary, summarize
from .suite import SpaptBenchmark

__all__ = ["DatasetEntry", "Dataset", "TrainTestSplit", "generate_dataset"]


@dataclass(frozen=True)
class DatasetEntry:
    """One profiled configuration."""

    configuration: Tuple[int, ...]
    observations: Tuple[float, ...]
    mean_runtime: float
    variance: float
    compile_time: float
    true_runtime: float
    noise_sensitivity: float

    def summary(self) -> SampleSummary:
        return summarize(self.observations)


@dataclass(frozen=True)
class TrainTestSplit:
    """Indices into a dataset marking training-eligible and test configurations."""

    train_indices: Tuple[int, ...]
    test_indices: Tuple[int, ...]


class Dataset:
    """A collection of profiled configurations for one benchmark."""

    def __init__(self, benchmark: SpaptBenchmark, entries: Sequence[DatasetEntry]) -> None:
        if not entries:
            raise ValueError("a dataset needs at least one entry")
        self._benchmark = benchmark
        self._entries: Tuple[DatasetEntry, ...] = tuple(entries)

    @property
    def benchmark(self) -> SpaptBenchmark:
        return self._benchmark

    @property
    def entries(self) -> Tuple[DatasetEntry, ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index: int) -> DatasetEntry:
        return self._entries[index]

    def configurations(self) -> List[Tuple[int, ...]]:
        return [entry.configuration for entry in self._entries]

    def mean_runtimes(self) -> np.ndarray:
        return np.array([entry.mean_runtime for entry in self._entries], dtype=float)

    def variances(self) -> np.ndarray:
        return np.array([entry.variance for entry in self._entries], dtype=float)

    def features(self) -> np.ndarray:
        return self._benchmark.features_many(self.configurations())

    def split(
        self,
        test_fraction: float = 0.25,
        rng: Optional[np.random.Generator] = None,
    ) -> TrainTestSplit:
        """Randomly mark a fraction of the dataset as the held-out test set.

        The paper marks 2 500 of 10 000 configurations (25%) as the test set
        per experiment.
        """
        if not 0.0 < test_fraction < 1.0:
            raise ValueError("test_fraction must be strictly between 0 and 1")
        rng = rng if rng is not None else np.random.default_rng()
        indices = np.arange(len(self._entries))
        rng.shuffle(indices)
        n_test = max(int(round(len(indices) * test_fraction)), 1)
        test = tuple(int(i) for i in indices[:n_test])
        train = tuple(int(i) for i in indices[n_test:])
        if not train:
            raise ValueError("test_fraction leaves no training configurations")
        return TrainTestSplit(train_indices=train, test_indices=test)

    def subset(self, indices: Sequence[int]) -> "Dataset":
        """A new dataset containing only the selected entries."""
        return Dataset(self._benchmark, [self._entries[i] for i in indices])


def generate_dataset(
    benchmark: SpaptBenchmark,
    configurations: int = 1000,
    observations_per_configuration: int = 35,
    rng: Optional[np.random.Generator] = None,
) -> Dataset:
    """Profile ``configurations`` distinct random configurations.

    Mirrors Section 4.5 of the paper with configurable counts (the paper uses
    10 000 configurations and 35 observations each; the default here is
    laptop-sized and the experiment harness chooses its own counts).
    """
    if configurations < 1:
        raise ValueError("configurations must be at least 1")
    if observations_per_configuration < 1:
        raise ValueError("observations_per_configuration must be at least 1")
    rng = rng if rng is not None else np.random.default_rng()
    space = benchmark.search_space
    count = min(configurations, space.size)
    selected = space.sample_distinct(count, rng)
    profiler = Profiler(benchmark, rng=rng)
    entries: List[DatasetEntry] = []
    for configuration in selected:
        observations = profiler.measure(
            configuration, repetitions=observations_per_configuration
        )
        summary = summarize(observations)
        entries.append(
            DatasetEntry(
                configuration=configuration,
                observations=tuple(float(o) for o in observations),
                mean_runtime=summary.mean,
                variance=summary.variance,
                compile_time=benchmark.compile_time(configuration),
                true_runtime=benchmark.true_runtime(configuration),
                noise_sensitivity=benchmark.noise_sensitivity(configuration),
            )
        )
    return Dataset(benchmark, entries)
