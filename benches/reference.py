"""Host-speed reference of the benchmark.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within a second, and all code slows down together.  So the runner times a
fixed kernel right after every sample, and scales the sample's time by
``NOMINAL_REP_S`` over the kernel's mean time per repetition just before and
just after it.

The kernel never calls the library, but does what the library's hot paths
do: it coerces entries into Python complex numbers, multiplies 4x4
matrices held as lists, keeps rows as tuples in a dict, and calls numpy's
4x4 SVD.  Over 30 repeats of one round, the log of the round time against
the log of this kernel's time had slope 1.15 on ``roundtrip`` and 0.87 on
``transitions``; a kernel of tuple coercion and numpy calls alone had 1.34
and 0.94.
"""

import time

import numpy as np

#: seconds per kernel repetition on a 2-core host (Python 3.11.7,
#: numpy 2.4.6) at its usual speed; a fixed constant, so it cancels when
#: two runs are compared
NOMINAL_REP_S = 5e-5

_ENTRIES = (np.arange(16) * (0.25 + 0.5j) + 1).tolist()


def seconds_per_rep(repeats=8):
    t0 = time.perf_counter()
    for _ in range(repeats):
        a = [complex(x) for x in _ENTRIES]
        rows = {i: tuple(sum(a[4 * i + k] * a[4 * k + j] for k in range(4))
                         for j in range(4))
                for i in range(4)}
        np.linalg.svd(np.array([rows[i] for i in range(4)]),
                      compute_uv=False)
    return (time.perf_counter() - t0) / repeats
