"""In-memory span tracing and the delegating proxies that feed it.

The traced run records a span around every call the benchmark makes into
a layer of ``repro``: the proxies below wrap a session, a broker, a
surrogate model and a benchmark, time each public call from the outside
and count the work it did.  Nothing inside the package is patched; the
session, the profiler and ``build_test_set`` are duck-typed, so they accept
the proxies in place of the real objects.

A layer's *self time* is the duration of its spans minus the part covered
by their child spans, so the self times of all layers plus the benchmark's
own time between spans add up to the wall time of the root span exactly.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.models.base import Prediction, SurrogateModel

#: The layers a span can belong to; ``bench`` is the benchmark's own code.
LAYERS = ("bench", "spapt", "measurement", "core", "models", "experiments")


@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    layer: str
    name: str
    request: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters kept in memory until :meth:`write` at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: Identifier shared by the spans of one request (a loop iteration).
        self.request = ""
        self._stack: List[int] = []

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), parent, layer, name, self.request,
                      time.perf_counter())
        self.spans.append(record)
        self._stack.append(record.span_id)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def self_times(self, root: Optional[Span] = None) -> Dict[str, float]:
        """Self seconds per ``layer.name`` (span duration minus children),
        over every span or over ``root`` and its descendants."""
        spans = self.spans
        if root is not None:
            inside = {root.span_id}
            for record in spans[root.span_id + 1:]:
                if record.parent in inside:
                    inside.add(record.span_id)
            spans = [record for record in spans if record.span_id in inside]
        child_time = defaultdict(float)
        for record in spans:
            if record.parent is not None:
                child_time[record.parent] += record.duration
        totals: Dict[str, float] = defaultdict(float)
        for record in spans:
            totals[f"{record.layer}.{record.name}"] += (
                record.duration - child_time[record.span_id]
            )
        return dict(totals)

    def layer_self_times(self, root: Optional[Span] = None) -> Dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for key, seconds in self.self_times(root).items():
            totals[key.split(".", 1)[0]] += seconds
        return totals

    def find(self, layer: str, name: str) -> Span:
        """The first span of that layer and name."""
        return next(
            record for record in self.spans
            if record.layer == layer and record.name == name
        )

    def total(self, layer: str, name: str) -> float:
        """Summed duration (children included) of the named spans."""
        return sum(
            record.duration
            for record in self.spans
            if record.layer == layer and record.name == name
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record.__dict__) + "\n")


def span(tracer: Optional[Tracer], layer: str, name: str):
    """``tracer.span(layer, name)``, or nothing when untraced."""
    return nullcontext() if tracer is None else tracer.span(layer, name)


# ----------------------------------------------------------------- proxies


class TimedBenchmark:
    """Delegating :class:`~repro.spapt.suite.SpaptBenchmark` proxy.

    Times the substrate's cost-model queries (``true_runtime``,
    ``compile_time``, ``noise_sensitivity``) and feature encoding, and
    counts the distinct configurations each cost query saw first — the
    benchmark's own caches miss exactly on those.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self._seen = set()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _cost(self, method: str, configuration):
        key = (method, tuple(int(v) for v in configuration))
        self._tracer.count("spapt.cost_calls")
        if key not in self._seen:
            self._seen.add(key)
            self._tracer.count("spapt.cost_cold")
        with self._tracer.span("spapt", "cost"):
            return getattr(self._inner, method)(configuration)

    def true_runtime(self, configuration) -> float:
        return self._cost("true_runtime", configuration)

    def compile_time(self, configuration) -> float:
        return self._cost("compile_time", configuration)

    def noise_sensitivity(self, configuration) -> float:
        return self._cost("noise_sensitivity", configuration)

    def features(self, configuration) -> np.ndarray:
        self._tracer.count("spapt.features_rows")
        with self._tracer.span("spapt", "features"):
            return self._inner.features(configuration)

    def features_many(self, configurations) -> np.ndarray:
        self._tracer.count("spapt.features_rows", len(configurations))
        with self._tracer.span("spapt", "features"):
            return self._inner.features_many(configurations)


class TimedModel(SurrogateModel):
    """Delegating surrogate-model proxy handed in through ``model_factory``.

    A ``predict`` on the held-out test set's feature matrix is the
    session's RMSE evaluation and is recorded as ``core.evaluate``; every
    other call is recorded in the ``models`` layer.
    """

    def __init__(self, inner: SurrogateModel, tracer: Tracer,
                 evaluation_features: np.ndarray) -> None:
        self._inner = inner
        self._tracer = tracer
        self._evaluation_features = evaluation_features

    def __getattr__(self, name):
        return getattr(self._inner, name)

    @property
    def training_size(self) -> int:
        return self._inner.training_size

    def fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        with self._tracer.span("models", "fit"):
            self._inner.fit(features, targets)

    def update(self, features: np.ndarray, target: float) -> None:
        self._tracer.count("models.updates")
        with self._tracer.span("models", "update"):
            self._inner.update(features, target)

    def predict(self, features: np.ndarray) -> Prediction:
        if features is self._evaluation_features:
            self._tracer.count("core.evaluations")
            with self._tracer.span("core", "evaluate"):
                return self._inner.predict(features)
        with self._tracer.span("models", "predict"):
            return self._inner.predict(features)

    def expected_average_variance(
        self, candidates: np.ndarray, reference: np.ndarray
    ) -> np.ndarray:
        self._tracer.count("models.alc_calls")
        self._tracer.count(
            "models.alc_rows",
            np.atleast_2d(candidates).shape[0] + np.atleast_2d(reference).shape[0],
        )
        with self._tracer.span("models", "alc"):
            return self._inner.expected_average_variance(candidates, reference)


class TimedSession:
    """Delegating :class:`~repro.core.session.TuningSession` proxy."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def ask(self):
        self._tracer.count("core.asks")
        with self._tracer.span("core", "ask"):
            return self._inner.ask()

    def tell(self, result) -> None:
        with self._tracer.span("core", "tell"):
            self._inner.tell(result)


class TimedBroker:
    """Delegating measurement-broker proxy."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def measure(self, request):
        self._tracer.count("measurement.requests")
        with self._tracer.span("measurement", "measure"):
            result = self._inner.measure(request)
        self._tracer.count("measurement.observations", len(result.runtimes))
        return result
