"""A fixed pure-Python loop that measures how fast the CPU runs right now.

On a shared host the same job can take 70% longer in one minute than in
the next, and the slow phases last from seconds to minutes, so wall times
of runs made minutes apart disagree by more than any useful bound.  The
loop below slows down by the same factor (its ratio to a qconn job stays
within a few percent while the job's own time nearly doubles), so the
benchmark times it next to every job and reports each job's time scaled
to the loop's reference time ``REF_S``:

    normalised = measured * REF_S / (loop time measured next to it)

It imports nothing beyond the interpreter's built-ins, so running it in a
fresh interpreter before ``import qconn`` loads none of qconn's imports
early.  It never calls qconn, so a change to qconn cannot move it.
"""

from __future__ import annotations

from math import gcd
from time import perf_counter

# the loop's time at the reference speed: about its time in the fastest
# phase of a shared 2-core x86-64 VM (its median there is nearer 1.7 ms)
REF_S = 0.001


def loop() -> int:
    """Integer bit operations, dict updates, rational additions with
    gcd reduction and a keyed sort: the kinds of work qconn's search,
    gauges and modular code spend their time on."""
    acc = 0
    counts: dict[int, int] = {}
    for i in range(3000):
        acc ^= (i * 2654435761) >> 7 & 0xFFFF
        counts[i & 127] = counts.get(i & 127, 0) + 1
    num, den = 0, 1
    for k in range(1, 120):
        num, den = num * k + den, den * k
        g = gcd(num, den)
        num, den = num // g, den // g
    acc += len(sorted(range(1500), key=lambda x: (x * 7919) % 1500))
    return acc + num % 97 + len(counts)


def seconds() -> float:
    """Time of one pass of the loop."""
    t0 = perf_counter()
    loop()
    return perf_counter() - t0
