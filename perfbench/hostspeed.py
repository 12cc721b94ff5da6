"""Host-speed calibration for the end-to-end times.

On a shared virtual machine the CPU's speed moves between regimes that
last minutes and differ by up to 1.5x, with no change to the program:
two sets of ten runs of one commit, 20 minutes apart, gave medians 30 %
apart.  So every operation and set-up process also times a fixed kernel
that uses none of the program's code, right after its timed work, and
the benchmark scales each time by ``REFERENCE_S / kernel time``.  A
change to the program moves the scaled times exactly as much as the raw
ones; a change in host speed moves them much less, because the kernel,
run in the same process on the same CPU moments later, slows with it.

The kernel is pure interpreter work like the simulator's: a small event
loop over a heap of tuples, slotted objects and dicts, then an integer
loop.  It is deterministic and takes about 0.2 s; calibrate() runs it
three times.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time

#: The kernel's median time, in a fresh interpreter right after an
#: operation, on the host the reference values were taken on: a 2-vCPU VM
#: (Intel Xeon at 2.0 GHz, Python 3.11.7).  Scaled times read as seconds
#: on that host at its median speed.
REFERENCE_S = 0.1800

_NODES = 200
_MESSAGES = 120
_FORWARD = 3
_INT_LOOP = 1_000_000
_RUNS = 3


class _Node:
    __slots__ = ("peers", "seen")

    def __init__(self, rng: random.Random) -> None:
        self.peers = [rng.randrange(_NODES) for _ in range(8)]
        self.seen = {}

    def receive(self, now: float, message: int, queue: list,
                rng: random.Random) -> None:
        if message in self.seen:
            return
        self.seen[message] = now
        for peer in self.peers[:_FORWARD]:
            heapq.heappush(queue, (now + rng.random(), peer, message))


def kernel() -> int:
    """The fixed work; returns a checksum so none of it is skipped."""
    rng = random.Random(7)
    nodes = [_Node(rng) for _ in range(_NODES)]
    queue = [(m * 0.1, m % _NODES, m) for m in range(_MESSAGES)]
    heapq.heapify(queue)
    deliveries = 0
    while queue:
        now, node, message = heapq.heappop(queue)
        nodes[node].receive(now, message, queue, rng)
        deliveries += 1
    total = 0
    for i in range(_INT_LOOP):
        total += i * i
    return deliveries + total % 1000


def calibrate() -> float:
    """Seconds the kernel takes now: the median of three back-to-back
    runs, so that one burst of contention on the host does not count."""
    times = []
    for _ in range(_RUNS):
        started = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - started)
    return statistics.median(times)
