"""Autotune a user-defined kernel (not part of SPAPT).

The library is not limited to the 11 SPAPT problems: any loop nest expressed
in the IR can be wrapped into a tunable program and driven by the same
active learner.  This example defines a small 2-D convolution-like stencil,
exposes unroll and tile parameters for its loops, attaches a noise profile,
and trains a runtime predictor for it.

It demonstrates the three extension points a user touches:

* :mod:`repro.ir` to describe the kernel,
* :class:`repro.spapt.SearchSpace` / :class:`TunableParameter` to describe
  the tunables, and
* :class:`repro.machine.MachineCostModel` + :class:`repro.measurement` to
  obtain (noisy) measurements — on a real system this is where an actual
  compiler-and-run harness would plug in.

Run with::

    python examples/custom_kernel_autotuning.py
"""

from __future__ import annotations

import numpy as np

from repro.core import ActiveLearner, LearnerConfig, TestSet, sequential_plan
from repro.ir import ArrayDecl, ArrayRef, Kernel, Loop, Statement, Var
from repro.machine import MachineCostModel
from repro.measurement import NoiseModel, NoiseProfile, Profiler, noise_model_from_profile
from repro.spapt import SearchSpace, TunableParameter


def build_blur_kernel(n: int = 1200) -> Kernel:
    """A 3x3 blur: out[i][j] = average of the 3x3 neighbourhood of img."""
    reads = [
        ArrayRef("img", (Var("i") + di, Var("j") + dj))
        for di in (-1, 0, 1)
        for dj in (-1, 0, 1)
    ]
    statement = Statement(
        writes=(ArrayRef("out", (Var("i"), Var("j"))),),
        reads=tuple(reads),
        flops=9,
        label="blur",
    )
    inner = Loop(var="j", lower=1, upper=Var("N") - 1, body=(statement,))
    outer = Loop(var="i", lower=1, upper=Var("N") - 1, body=(inner,))
    return Kernel(
        name="blur3x3",
        sizes={"N": n},
        arrays=(ArrayDecl("img", ("N", "N")), ArrayDecl("out", ("N", "N"))),
        loops=(outer,),
    )


class BlurProgram:
    """Minimal TunableProgram wrapper around the custom kernel."""

    def __init__(self) -> None:
        self.name = "blur3x3"
        self.kernel = build_blur_kernel()
        self.space = SearchSpace(
            [
                TunableParameter.unroll("U_i", "i", max_factor=16),
                TunableParameter.unroll("U_j", "j", max_factor=16),
                TunableParameter.cache_tile("T_j", "j", values=(1,) + tuple(range(32, 513, 32))),
                TunableParameter.register_tile("RT_i", "i", max_factor=4),
            ]
        )
        self._model = MachineCostModel(self.kernel, time_scale=1.0)
        self._noise = noise_model_from_profile(
            NoiseProfile(interference_sigma=0.006, layout_sigma_high=0.04)
        )

    # -- TunableProgram protocol ------------------------------------------
    def true_runtime(self, configuration):
        return self._model.runtime_seconds(self.space.to_transform_configuration(configuration))

    def compile_time(self, configuration):
        return self._model.compile_seconds(self.space.to_transform_configuration(configuration))

    def noise_sensitivity(self, configuration):
        return self._model.noise_sensitivity(self.space.to_transform_configuration(configuration))

    @property
    def noise_model(self) -> NoiseModel:
        return self._noise

    # -- beyond the protocol, ActiveLearner needs only the search space ----
    # (the session featurizes configurations with the space itself)
    @property
    def search_space(self) -> SearchSpace:
        return self.space


def main() -> None:
    rng = np.random.default_rng(3)
    program = BlurProgram()
    print(f"custom kernel: {program.name}")
    print(program.space.describe())

    # Build a held-out test set by profiling random configurations.
    profiler = Profiler(program, rng=rng)
    test_configurations = program.space.sample_distinct(120, rng)
    means = []
    for configuration in test_configurations:
        profiler.measure(configuration, repetitions=6)
        means.append(profiler.mean_runtime(configuration))
    test_set = TestSet(
        configurations=tuple(test_configurations),
        features=program.space.normalize_many(test_configurations),
        mean_runtimes=np.asarray(means),
    )

    config = LearnerConfig(
        n_initial=5,
        seed_observations=15,
        n_candidates=40,
        max_training_examples=90,
        reference_size=25,
        evaluation_interval=10,
        tree_particles=20,
    )
    learner = ActiveLearner(program, plan=sequential_plan(15), config=config, rng=rng)
    result = learner.run(test_set)

    print()
    print(f"best RMSE           : {result.curve.best_error:.4f} s")
    print(f"profiling cost      : {result.total_cost_seconds:.0f} simulated seconds")
    best_prediction = result.model.predict(test_set.features)
    best_index = int(np.argmin(best_prediction.mean))
    print(f"model's favourite test configuration: {test_set.configurations[best_index]}"
          f" (measured mean {test_set.mean_runtimes[best_index]:.4f} s)")
    default_runtime = program.true_runtime(program.space.default_configuration())
    print(f"untransformed baseline runtime        : {default_runtime:.4f} s")


if __name__ == "__main__":
    main()
