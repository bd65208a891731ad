"""Timings corrected for the host's speed at the moment they were taken.

On a shared host the same work takes a different time from second to
second: other tenants contend for the core and its caches, and the
process's CPU time slows with its wall time, so no clock removes this.
A fixed piece of reference work, run next to the program, slows by a
similar factor (perfbench/README.md says how similar). So the benchmark runs a short reference chunk
at every mark the probe sets (each prediction's start and end, each
optimizer step's end, the edges of the timed region) and scales each
stretch of program time between two marks by how fast the nearby
chunks ran:

    host-corrected seconds = raw seconds * NOMINAL_S / local chunk time

where the local chunk time is the median of the chunks around that
stretch. A program change makes its own stretches shorter or longer;
the chunks are the benchmark's own code, so they do not move with it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# A timed chunk took about 0.18 ms on a shared 2-vCPU x86_64 VM in its
# fast state and 0.34 ms in its slow one (Python 3.11, numpy 2.4 with
# OpenBLAS). It only sets the scale: a corrected time reads as the time
# at a host speed where the chunk takes NOMINAL_S.
NOMINAL_S = 2.0e-4
STEPS = 12  # recurrence steps per chunk
NEIGHBOURS = 8  # chunks on each side of a stretch that set its local speed


class _Node:
    __slots__ = ("value", "backward")

    def __init__(self, value, backward):
        self.value = value
        self.backward = backward


class HostClock:
    """Runs the reference chunk at each mark and corrects the time
    between marks. ``ticks[i]`` is (mark start, timed chunk start, mark
    end) of the i-th mark."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._w = rng.uniform(-0.3, 0.3, (32, 32))
        self._b = rng.uniform(-0.1, 0.1, 32)
        self.ticks: list[tuple[float, float, float]] = []

    def reset(self) -> None:
        self.ticks = []

    def _chunk(self) -> None:
        """A tiny recurrence recorded on a tape and run backward: the
        program's kind of work (small numpy calls, Python objects,
        closures and dicts). Plain numpy loops track the program's
        slow-downs about four times worse than this."""
        w, b = self._w, self._b
        h, tape = _Node(np.zeros((1, 32)), None), []
        for _ in range(STEPS):
            z = _Node(h.value @ w, lambda g, h=h: {id(h): g @ w.T})
            a = _Node(
                np.tanh(z.value + b), lambda g, z=z: {id(z): g * (1 - np.tanh(z.value) ** 2)}
            )
            h = _Node(
                0.5 * (a.value + h.value), lambda g, a=a, h=h: {id(a): 0.5 * g, id(h): 0.5 * g}
            )
            tape += [z, a, h]
        grads = {id(h): np.ones((1, 32))}
        for node in reversed(tape):
            grad = grads.pop(id(node), None)
            if grad is not None:
                for key, part in node.backward(grad).items():
                    grads[key] = grads[key] + part if key in grads else part

    def mark(self) -> int:
        """Run one chunk; return its index. A first, untimed run warms
        the caches, so the timed run does not depend on what the program
        did just before: a change to the program's memory use must not
        move the correction."""
        begin = time.perf_counter()
        self._chunk()
        start = time.perf_counter()
        self._chunk()
        self.ticks.append((begin, start, time.perf_counter()))
        return len(self.ticks) - 1

    def local_chunk_s(self, first: int, last: int) -> float:
        """Median chunk time around the stretch from mark ``first`` to
        mark ``last``."""
        window = self.ticks[max(0, first - NEIGHBOURS) : last + NEIGHBOURS + 1]
        return statistics.median(end - start for _, start, end in window)

    def raw_s(self, first: int, last: int) -> float:
        """Program time from the end of mark ``first`` to the start of
        mark ``last``, minus the marks between them."""
        marks = sum(end - begin for begin, _, end in self.ticks[first + 1 : last])
        return self.ticks[last][0] - self.ticks[first][2] - marks

    def corrected_s(self, first: int, last: int) -> float:
        """The same stretch at the nominal host speed, each gap between
        consecutive marks scaled by its own local chunk time."""
        return sum(
            self.raw_s(i, i + 1) * NOMINAL_S / self.local_chunk_s(i, i + 1)
            for i in range(first, last)
        )
