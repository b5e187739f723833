"""Latency profiler.

IOS is a *profile-based* scheduler: `GENERATE STAGE` "directly measures the
latencies of both parallelization strategies on the hardware" (Section 4.1).
The :class:`Profiler` mirrors how the paper measures latency — several warm-up
runs followed by repeated measurements whose average is reported — on top of
the simulated executor.  A deterministic pseudo-random measurement noise can be
enabled to exercise the robustness of downstream code; it is off by default so
every experiment is exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hardware.device import DeviceSpec
from ..hardware.kernel import CUDNN_PROFILE, KernelProfile
from .executor import ExecutionPlan, Executor

__all__ = ["Measurement", "Profiler"]


def _mean_of_repeated(value: float, repeats: int) -> float:
    """``float(np.mean((value,) * repeats))``, without building the array.

    The DP search consumes only the mean, and with noise disabled every
    sample equals ``value`` — but the mean is *not* ``value`` (``(0.1 + 0.1 +
    0.1) / 3`` rounds).  Schedule choices can tie-break on a ulp, so the fast
    path must reproduce numpy's accumulation order bit-for-bit: sequential
    for short arrays, numpy's own pairwise reduction otherwise.
    """
    if repeats < 8:
        acc = value
        for _ in range(repeats - 1):
            acc += value
        return acc / repeats
    return float(np.mean(np.full(repeats, value)))


@dataclass(frozen=True)
class Measurement:
    """Aggregated latency measurement of one plan or stage."""

    mean_ms: float
    std_ms: float
    repeats: int
    samples: tuple[float, ...]

    @property
    def min_ms(self) -> float:
        return min(self.samples) if self.samples else 0.0

    @property
    def max_ms(self) -> float:
        return max(self.samples) if self.samples else 0.0


class Profiler:
    """Measures stage and plan latencies on a simulated device.

    Parameters
    ----------
    device, profile:
        The simulated GPU and kernel library.
    warmup, repeats:
        Number of discarded warm-up runs and averaged measurement runs.  The
        paper conducts each experiment 5 times and reports the average.
    noise_std:
        Relative standard deviation of multiplicative Gaussian measurement
        noise (e.g. ``0.01`` for 1 %).  ``0`` disables noise entirely.
    seed:
        Seed of the noise generator, so noisy profiles are reproducible.
    """

    def __init__(
        self,
        device: DeviceSpec,
        profile: KernelProfile = CUDNN_PROFILE,
        warmup: int = 2,
        repeats: int = 5,
        noise_std: float = 0.0,
        seed: int = 0,
    ):
        if warmup < 0 or repeats <= 0:
            raise ValueError("warmup must be >= 0 and repeats must be > 0")
        if noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        self.device = device
        self.profile = profile
        self.warmup = warmup
        self.repeats = repeats
        self.noise_std = noise_std
        self._rng = np.random.default_rng(seed)
        self.executor = Executor(device, profile)
        #: Number of simulated latency measurements performed (used to report
        #: optimisation cost, Figure 9 / Figure 12).
        self.measurement_count = 0
        #: Total simulated GPU time spent profiling, in milliseconds: every
        #: measurement occupies the device for (warmup + repeats) runs of the
        #: measured stage/plan.  This is the "optimization cost" axis of
        #: Figure 9 and the GPU-hours comparison of Figure 12.
        self.total_profiling_ms = 0.0

    # ------------------------------------------------------------------ helpers
    def _noisy(self, value: float) -> float:
        if self.noise_std == 0.0:
            return value
        factor = 1.0 + self.noise_std * float(self._rng.standard_normal())
        return max(0.0, value * factor)

    def _measure(self, base_latency: float) -> Measurement:
        self.total_profiling_ms += (self.warmup + self.repeats) * base_latency
        # Warm-up runs are simulated but discarded, mirroring real profiling.
        for _ in range(self.warmup):
            self._noisy(base_latency)
        samples = tuple(self._noisy(base_latency) for _ in range(self.repeats))
        mean = float(np.mean(samples))
        std = float(np.std(samples))
        return Measurement(mean_ms=mean, std_ms=std, repeats=self.repeats, samples=samples)

    # ------------------------------------------------------------------ public
    def measure_plan(self, plan: ExecutionPlan) -> Measurement:
        """Measure the end-to-end latency of an execution plan."""
        self.measurement_count += 1
        base = self.executor.run(plan).latency_ms
        return self._measure(base)

    def measure_latency(self, base_ms: float) -> float:
        """Measure a stage of noiseless latency ``base_ms``; returns the mean.

        Without noise every sample is ``base_ms``, so the mean comes from
        :func:`_mean_of_repeated`, skipping the :class:`Measurement`.
        """
        self.measurement_count += 1
        if self.noise_std == 0.0:
            self.total_profiling_ms += (self.warmup + self.repeats) * base_ms
            return _mean_of_repeated(base_ms, self.repeats)
        return self._measure(base_ms).mean_ms
