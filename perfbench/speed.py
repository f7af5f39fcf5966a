"""The host's speed, sampled with a fixed reference loop while measuring.

On a shared virtual machine, the load of other guests changes the speed of
the same code by up to 2x between minutes, in CPU time as much as in wall
time.  The benchmark therefore runs a fixed reference loop before an
operation whenever a tenth of a second has passed since the last sample.  It
scales each time it reports by NOMINAL_S over the median CPU time of the
loop samples taken during and right around the operation.  A reported time is
thus the CPU time the operation would take at the speed where the loop takes
NOMINAL_S.  The loop does not depend on the package, so a change to the
package moves the scaled times exactly as much as the raw ones.  The raw
times stay in the full report.

The loop has two parts, both an RK4 of a driven two-level system written out
here.  One is plain scalar arithmetic.  The other reads its pulse parameters
from small numpy arrays at every stage, as the package's numpy-path kernels
do.  Under the load of other guests, the package's operations slow down more
than plain arithmetic does; with the second part, the loop slows down by
about as much as they do, and the scaled times spread about half as much.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: CPU seconds the reference loop takes at the reference speed (the fastest
#: seen on a 2.1 GHz x86_64 guest), so a scaled time is close to a raw one
#: on an idle host
NOMINAL_S = 0.0077
EVERY_S = 0.1   # wall seconds between samples while measuring
MARGIN_S = 0.15  # samples this close to an operation's span set its scale
SETUP_SAMPLES = 8  # samples before the package import, and again after set-up

#: pulse parameters of the kernel-style part: shape (1 gaussian, 2
#: rectangular), axis (0 x, 1 y), area, center, width
_SHAPES = np.array([2, 1, 2], dtype=np.int64)
_AXES = np.array([0, 1, 0], dtype=np.int64)
_AREAS = np.array([0.7, -0.4, 0.9])
_CENTERS = np.array([1.0, 3.0, 5.0])
_WIDTHS = np.array([0.4, 0.3, 0.5])


def reference_loop() -> complex:
    return _scalar_rk4(1500) + _kernel_rk4(400)


def _scalar_rk4(n: int) -> complex:
    a, b = 1.0 + 0j, 0j
    h, half = 1e-3, 0.5
    for k in range(n):
        v = 0.3 * math.exp(-((k * h - 3.0) / 0.5) ** 2)
        k1a = -1j * (-half * a + v * b)
        k1b = -1j * (v * a + half * b)
        a2, b2 = a + 0.5 * h * k1a, b + 0.5 * h * k1b
        k2a = -1j * (-half * a2 + v * b2)
        k2b = -1j * (v * a2 + half * b2)
        a3, b3 = a + 0.5 * h * k2a, b + 0.5 * h * k2b
        k3a = -1j * (-half * a3 + v * b3)
        k3b = -1j * (v * a3 + half * b3)
        a4, b4 = a + h * k3a, b + h * k3b
        k4a = -1j * (-half * a4 + v * b4)
        k4b = -1j * (v * a4 + half * b4)
        a += h / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        b += h / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
    return a


def _field(t: float, eta: float) -> tuple[float, float]:
    vx = vy = 0.0
    for i in range(_SHAPES.shape[0]):
        v = 0.0
        if _SHAPES[i] == 1:
            u = (t - _CENTERS[i]) / _WIDTHS[i]
            if -8.0 <= u <= 8.0:
                v = _AREAS[i] / (math.sqrt(math.pi) * _WIDTHS[i]) * math.exp(-u * u)
        elif _SHAPES[i] == 2:
            if _CENTERS[i] - 0.5 * _WIDTHS[i] <= t + eta < _CENTERS[i] + 0.5 * _WIDTHS[i]:
                v = _AREAS[i] / _WIDTHS[i]
        if _AXES[i] == 0:
            vx += v
        else:
            vy += v
    return vx, vy


def _kernel_rk4(n: int) -> complex:
    """RK4 over [0, 6] whose field comes from the numpy arrays above."""
    samples = np.empty((n // 5 + 1, 2), dtype=complex)
    a, b = 1.0 + 0j, 0j
    h, half = 6.0 / n, 0.5
    for k in range(n):
        t = k * h
        f = complex(*_field(t, 1e-12))
        k1a = -1j * (-half * a + f.conjugate() * b)
        k1b = -1j * (f * a + half * b)
        f = complex(*_field(t + 0.5 * h, 0.0))
        a2, b2 = a + 0.5 * h * k1a, b + 0.5 * h * k1b
        k2a = -1j * (-half * a2 + f.conjugate() * b2)
        k2b = -1j * (f * a2 + half * b2)
        a3, b3 = a + 0.5 * h * k2a, b + 0.5 * h * k2b
        k3a = -1j * (-half * a3 + f.conjugate() * b3)
        k3b = -1j * (f * a3 + half * b3)
        f = complex(*_field(t + h, -1e-12))
        a4, b4 = a + h * k3a, b + h * k3b
        k4a = -1j * (-half * a4 + f.conjugate() * b4)
        k4b = -1j * (f * a4 + half * b4)
        a += h / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        b += h / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        if k % 5 == 0:
            samples[k // 5] = (a, b)
    return samples[-1, 0]



class SpeedProbe:
    """Reference-loop samples, each with the wall time of its middle."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.cpu_s = 0.0  # CPU seconds spent in the loop so far

    def sample(self) -> None:
        start, start_cpu = time.perf_counter(), time.process_time()
        reference_loop()
        cpu = time.process_time() - start_cpu
        self.samples.append((0.5 * (start + time.perf_counter()), cpu))
        self.cpu_s += cpu

    def tick(self) -> None:
        """Sample if the last sample is more than EVERY_S old."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.sample()

    def scale(self) -> float:
        """NOMINAL_S over the median loop time of every sample so far."""
        return NOMINAL_S / statistics.median(cpu for _, cpu in self.samples)

    def scale_over(self, start: float, end: float) -> float:
        """NOMINAL_S over the median loop time of the samples near [start, end].

        These are the samples within MARGIN_S of the span, and at least the
        two nearest to its middle, so that samples from both sides bracket
        the speed the operation ran at.
        """
        near = [cpu for at, cpu in self.samples if start - MARGIN_S <= at <= end + MARGIN_S]
        if len(near) < 2:
            middle = 0.5 * (start + end)
            near = [cpu for _, cpu in sorted(self.samples, key=lambda s: abs(s[0] - middle))[:2]]
        return NOMINAL_S / statistics.median(near)
