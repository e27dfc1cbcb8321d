"""Host speed, measured with a fixed reference task, to correct timings.

On a shared virtual machine the speed of the CPU changes with the load
of other tenants: on a 2-vCPU Xeon VM (2.0 GHz) a pure-Python loop ran
up to 1.5x and a JSON round trip up to 1.9x slower, in spells lasting
seconds to minutes. Run medians then follow the host rather than the
program. The benchmark therefore times ``reference_s()`` before and after
each block of operations and scales the block's timings by
``NOMINAL_S / reference time``: the figures are what the operations would
take on the same host at its nominal speed. (Single-row latencies are the
exception; see ``workloads.Samples.add``.)

The reference task is a fixed mix of a pure-Python loop, a JSON round
trip, small numpy element-wise work and a small matrix product, the kinds
of work evosynth does. It shares no code with evosynth, so a change to
the program does not change the reference.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# reference_s() on a 2-vCPU Xeon VM (2.0 GHz) in a fast spell; over 40 s it read 1.8-3.6 ms
NOMINAL_S = 0.0025
REPEATS = 5

_DOC = [float(i) * 0.37 for i in range(1200)]
_VEC = np.linspace(0.0, 1.0, 2000)
_MAT = np.linspace(-1.0, 1.0, 48 * 48).reshape(48, 48)


def _task() -> None:
    x = 0
    for i in range(8000):
        x = (x + i * 7) & 0xFFFF
    json.loads(json.dumps(_DOC, indent=1))
    v = _VEC.copy()
    for _ in range(20):
        v = v * 0.5 + _VEC
    m = _MAT
    for _ in range(4):
        m = np.maximum(m @ _MAT, 0.0) * 0.01


def reference_s() -> float:
    """Median seconds of the reference task over REPEATS runs (about 15 ms in all)."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _task()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
