"""Analytical cache-hierarchy model.

The substrate does not simulate individual memory accesses (SPAPT kernels
execute billions of them); instead it uses the standard analytical treatment
for dense loop nests: an access's cost is determined by

* its **reuse footprint** — how much data is touched between two uses of the
  same element.  The smallest cache level whose effective capacity covers
  the footprint is where the reuse is served from.
* its **spatial locality** — the stride between consecutive accesses
  relative to the line size.  Unit-stride streams only pay the deeper-level
  latency once per line; large strides pay it on every access.

The capacity test is smoothed (a logistic occupancy curve) rather than a
hard cliff, which mimics the gradual degradation real set-associative caches
show as the working set approaches capacity and also gives the surrogate
models a learnable, locally smooth response surface with genuinely sharp —
but not discontinuous — ridges where tiling stops fitting a level.

The default hierarchy matches the paper's evaluation machine, an Intel Core
i7-4770K (Haswell): 32 KB L1-D, 256 KB L2, 8 MB shared L3, 64-byte lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

__all__ = ["CacheLevel", "MemoryHierarchy", "haswell_hierarchy"]


@dataclass(frozen=True)
class CacheLevel:
    """One level of the cache hierarchy."""

    name: str
    capacity_bytes: int
    line_bytes: int
    latency_cycles: float
    utilization: float = 0.75

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"{self.name}: capacity must be positive")
        if self.line_bytes <= 0:
            raise ValueError(f"{self.name}: line size must be positive")
        if self.latency_cycles < 0:
            raise ValueError(f"{self.name}: latency cannot be negative")
        if not 0.0 < self.utilization <= 1.0:
            raise ValueError(f"{self.name}: utilization must be in (0, 1]")

    @property
    def effective_capacity(self) -> float:
        """Capacity usable before conflict/associativity effects kick in."""
        return self.capacity_bytes * self.utilization

    def hit_probability(self, footprint_bytes: float, sharpness: float = 4.0) -> float:
        """Probability that a reuse with the given footprint is served here.

        A logistic curve in log-space: ~1 when the footprint is well below
        the effective capacity, ~0 well above it, with a transition whose
        width is controlled by ``sharpness`` (larger is sharper).
        """
        if footprint_bytes <= 0:
            return 1.0
        ratio = footprint_bytes / self.effective_capacity
        return 1.0 / (1.0 + ratio ** sharpness)


@dataclass(frozen=True)
class MemoryHierarchy:
    """A stack of cache levels backed by DRAM."""

    levels: Tuple[CacheLevel, ...]
    dram_latency_cycles: float = 220.0

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("a memory hierarchy needs at least one cache level")
        capacities = [level.capacity_bytes for level in self.levels]
        if capacities != sorted(capacities):
            raise ValueError("cache levels must be ordered from smallest to largest")
        if self.dram_latency_cycles <= 0:
            raise ValueError("DRAM latency must be positive")

    @property
    def l1(self) -> CacheLevel:
        return self.levels[0]

    def expected_access_cycles(
        self, reuse_footprint_bytes: float, stride_bytes: float
    ) -> float:
        """Expected cycles to satisfy one access.

        Parameters
        ----------
        reuse_footprint_bytes:
            Data volume touched between consecutive reuses of the accessed
            element (``0`` means the value stays register/L1 resident,
            ``inf`` means it is never reused).
        stride_bytes:
            Distance in bytes between consecutive accesses of this reference
            in the innermost loop.  ``0`` means the same element is accessed
            repeatedly.
        """
        if reuse_footprint_bytes < 0:
            raise ValueError("reuse footprint cannot be negative")
        if stride_bytes < 0:
            stride_bytes = -stride_bytes

        # Fraction of accesses that actually have to go past a cache line:
        # repeated or unit-stride accesses amortise a line fill over
        # line/stride accesses; strides beyond a line pay it every time.
        line = self.l1.line_bytes
        if stride_bytes == 0:
            spatial_miss_fraction = 0.0
        else:
            spatial_miss_fraction = min(1.0, stride_bytes / line)

        expected = self.l1.latency_cycles
        # Probability the reuse is NOT captured by each successive level.
        escape_probability = 1.0
        previous_latency = self.l1.latency_cycles
        for level in self.levels:
            capture = level.hit_probability(reuse_footprint_bytes)
            # Accesses escaping the previous levels but captured here pay
            # this level's latency (weighted by how often a new line is
            # actually needed).
            expected += (
                escape_probability
                * capture
                * spatial_miss_fraction
                * max(level.latency_cycles - previous_latency, 0.0)
            )
            escape_probability *= 1.0 - capture
            previous_latency = level.latency_cycles
        expected += (
            escape_probability
            * spatial_miss_fraction
            * max(self.dram_latency_cycles - previous_latency, 0.0)
        )
        return expected

    def boundary_proximity(self, footprint_bytes: float) -> float:
        """How close a footprint sits to a capacity boundary, in [0, 1].

        Configurations whose working set straddles a cache capacity are the
        ones whose measured runtime is most sensitive to memory-layout
        perturbations (conflict misses come and go with ASLR).  The noise
        substrate uses this as its heteroskedasticity knob.
        """
        if footprint_bytes <= 0:
            return 0.0
        proximity = 0.0
        for level in list(self.levels):
            ratio = footprint_bytes / level.effective_capacity
            # exp(-(log ratio)^2 / width): 1 exactly at the boundary, decaying
            # as the footprint moves away from it in either direction.  The
            # width is deliberately narrow so that only working sets genuinely
            # straddling a capacity are flagged as layout sensitive.
            log_ratio = math.log(ratio)
            proximity = max(proximity, math.exp(-(log_ratio ** 2) / 0.18))
        return min(proximity, 1.0)


def haswell_hierarchy() -> MemoryHierarchy:
    """The cache hierarchy of the paper's Intel Core i7-4770K machine."""
    return MemoryHierarchy(
        levels=(
            CacheLevel("L1D", capacity_bytes=32 * 1024, line_bytes=64, latency_cycles=4.0),
            CacheLevel("L2", capacity_bytes=256 * 1024, line_bytes=64, latency_cycles=12.0),
            CacheLevel("L3", capacity_bytes=8 * 1024 * 1024, line_bytes=64, latency_cycles=36.0),
        ),
        dram_latency_cycles=220.0,
    )
