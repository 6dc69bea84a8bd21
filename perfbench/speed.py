"""A gauge of the machine's speed, independent of the ``tabloids`` package.

On a shared host the speed of a CPU moves with the load of other tenants:
on the machine the bounds were set on, a fixed pure-Python task ran either
at full speed or about 1.75 times slower, switching between the two every
few seconds, in the same process and on either CPU.  A run's CPU times move
with the share of it spent in the slow state, which has nothing to do with
the program.  So every process that runs jobs times `calibrate` right
before and right after each job, and the job's time is scaled by
`REFERENCE_S` over the mean of the two: it then reads as CPU seconds at the
gauge's reference speed.  A change of the machine's speed cancels from the
scaled time; a change of the program's speed does not, since the gauge
calls none of the package's code.
"""

from __future__ import annotations

import gc
import time
from itertools import permutations

#: About the median gauge time over runs on a 2-core Intel Xeon virtual
#: machine with CPython 3.11.7, the machine the bounds were set on, so that
#: scaled times read close to its CPU seconds.  It is a fixed scale; it
#: cancels from every comparison of two runs.
REFERENCE_S = 0.004


def calibrate() -> float:
    """CPU seconds of a fixed task in the style of the package's work.

    The task looks up tuple keys in a dict and does integer arithmetic.  Its
    tables are built before the clock starts and dropped after it stops, and
    the timed part keeps no new objects alive, with the garbage collector
    off: so neither the calling process's heap nor page faults enter the
    gauge.
    """
    perms = list(permutations(range(6)))
    index = {p: r for r, p in enumerate(perms)}
    enabled = gc.isenabled()
    gc.disable()
    try:
        c0 = time.process_time()
        acc = 0
        for k in range(1, 11):
            for p in perms:
                r = index[p[::-1]]
                acc += (p[0] - p[5]) * r // (r % 11 + k)
        return time.process_time() - c0
    finally:
        if enabled:
            gc.enable()
