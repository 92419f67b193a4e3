"""Host speed, sampled with a fixed reference kernel between units of work.

On the shared 2-CPU VM the benchmark was tuned on, the host's speed
switches between a slow and a fast state, about 2x apart, every 10-20 ms,
and the share of time spent in the fast state drifts between under 10%
and over 60% over minutes.  Over 25 s stretches of one long run, with the
same code and input throughout, the median iteration time had a quartile
spread of 0.15-0.29 of its median, and no run length the benchmark's time
budget allows averaged the drift out.

A :class:`HostMeter` runs a fixed kernel after each timed unit of work,
for a set share of that unit's wall time, so its samples fall in the
same stretch of the run as the units they scale.  ``scale()`` is
``REFERENCE_S`` over the kernel's mean time; wall seconds times that
scale are seconds on a host where the kernel takes ``REFERENCE_S``.  The
kernel is the benchmark's own code and allocates nothing, so no change
to the library can make it faster or slower.  Only the end-to-end times
are scaled; per-layer seconds stay wall seconds, to be read as shares of
their own run.
"""

from __future__ import annotations

import statistics

import numpy as np

from .tracing import Tracer, now

#: the unit of the scaled times: about the kernel's mean time on the
#: 2-CPU x86 VM the benchmark was tuned on, so scales there sit near 1
REFERENCE_S = 0.005
#: meter time after a unit, as a share of the unit's wall time
SHARE = 0.08
#: kernel calls after each set-up at least: set-ups are few, and on
#: ``serve`` short, so a run's set-ups need more than SHARE of samples
SETUP_CALLS = 8
#: Python-level loop steps of the kernel's first half
LOOPS = 2000
#: pairs and targets of the kernel's array half
PAIRS = 1 << 18
TARGETS = 1 << 13


class HostMeter:
    """Reference-kernel samples taken between the units of one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        rng = np.random.default_rng(0)
        self._src = rng.integers(0, TARGETS, PAIRS)
        self._x = rng.random(TARGETS)
        self._m = rng.random(TARGETS)
        self._small = np.arange(64.0)
        self._buf = np.empty((3, PAIRS))

    def kernel(self) -> float:
        """One call of the reference kernel; returns its wall seconds.

        Small NumPy calls from a Python loop, as the per-node engines
        make, then a gather, pair arithmetic and a scatter-add over
        pair-sized arrays, as the vectorized kernels make.  The two
        halves take about the same time, so the kernel tracks both kinds
        of work: scaled by either half alone, the iteration times of the
        other kind spread about twice as much.  The array half writes
        into preallocated buffers, so the program's heap cannot change
        its cost."""
        small, (d, r, w) = self._small, self._buf
        t = now()
        acc = 0.0
        for i in range(LOOPS):
            v = small[i % 32:i % 32 + 8]
            acc += float(np.dot(v, v))
        np.take(self._x, self._src, out=d)
        d -= 0.5
        np.multiply(d, d, out=d)
        d += 1e-6
        np.sqrt(d, out=r)
        r *= d
        np.take(self._m, self._src, out=w)
        w /= r
        np.bincount(self._src, weights=w, minlength=TARGETS)
        return now() - t

    def after(self, unit_s: float, calls: int = 1, tracer: Tracer | None = None) -> None:
        """Sample for ``SHARE`` of a unit that took ``unit_s`` seconds,
        and for at least ``calls`` kernel calls.  With a tracer, the
        sampling shows as a top-level ``bench.hostspeed`` span."""
        start = now()
        end = start + SHARE * unit_s
        for _ in range(calls):
            self.samples.append(self.kernel())
        while now() < end:
            self.samples.append(self.kernel())
        if tracer is not None:
            tracer.record("bench.hostspeed", start, now())

    def scale(self, first: int = 0, last: int | None = None) -> float:
        """Factor from wall seconds to reference-host seconds, over the
        samples ``first:last``: the stretch of the run the units were in."""
        return REFERENCE_S / statistics.fmean(self.samples[first:last])
