"""Machine-speed reference for timings taken on a shared machine.

On a shared host the same work can take 50 % longer for seconds to tens
of seconds at a time, and process CPU time swings with it.  The benchmark
therefore times a short fixed kernel after each timed piece of an
operation: sparse LU solves on a 2D Laplacian the size of the default
mesh, NumPy vector updates and an interpreter loop, the same kinds of work
as the program's.  The kernel does not use the program under test, so no
change to the program can move it.

Each piece's wall time is also reported scaled to a kernel time of
``NOMINAL_S`` ("reference-speed" time): t * NOMINAL_S / k, with k the mean
of the kernel samples just before and just after the piece.  Sampled this
often, the scaled time of a run stays within a few per cent while its wall
time swings by tens of per cent.  Sampling only every 0.25 s left the scan
workload's spread at 7 %, against 3-4 % when sampling after every point.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

NOMINAL_S = 0.04    # kernel time on the 2-core machine the bounds were set on
_GRID = 46          # 46^2 = 2116 unknowns, close to the default mesh's 2140 nodes


class SpeedProbe:
    def __init__(self):
        off = np.ones(_GRID - 1)
        path = sp.diags([off, off], [-1, 1])
        eye = sp.eye(_GRID)
        self._matrix = (4.0 * sp.eye(_GRID * _GRID) - sp.kron(eye, path)
                        - sp.kron(path, eye)).tocsc()
        self._rhs = np.ones(_GRID * _GRID)

    def sample(self) -> float:
        """Seconds the fixed kernel takes now."""
        t0 = time.perf_counter()
        for _ in range(5):
            spla.spsolve(self._matrix, self._rhs)
        x = np.zeros(_GRID * _GRID)
        for _ in range(1500):
            x = x * 0.5 + 1.0
        acc = 0
        for i in range(60000):
            acc += i * i % 7
        return time.perf_counter() - t0


class Stopwatch:
    """Times the pieces of each operation, sampling the kernel between them."""

    def __init__(self):
        self.op = 0                                   # operation being timed
        self._probe = SpeedProbe()
        self._pieces: list[tuple[int, float]] = []    # (op, wall seconds)
        self._marks = [(0, self._probe.sample())]     # (pieces done, kernel s)

    @contextmanager
    def piece(self):
        t0 = time.perf_counter()
        yield
        self._pieces.append((self.op, time.perf_counter() - t0))
        self._marks.append((len(self._pieces), self._probe.sample()))

    def per_op(self, n_ops: int) -> tuple[list[float], list[float], list[float]]:
        """Wall and reference-speed seconds per operation, and the kernel samples."""
        wall, ref = attribute(self._pieces, self._marks, n_ops)
        return wall, ref, [k for _, k in self._marks]


def attribute(pieces, marks, n_ops: int) -> tuple[list[float], list[float]]:
    """Sum timed pieces per operation, as wall and reference-speed seconds.

    ``pieces`` are (operation, seconds); ``marks`` are (pieces done, kernel
    seconds) for each kernel sample, the first at 0 pieces and the last
    after every piece.  A piece is scaled by the mean of the samples just
    before and just after it.
    """
    wall = [0.0] * n_ops
    ref = [0.0] * n_ops
    for (done, k0), (upto, k1) in zip(marks, marks[1:]):
        scale = NOMINAL_S / (0.5 * (k0 + k1))
        for op, t in pieces[done:upto]:
            wall[op] += t
            ref[op] += t * scale
    return wall, ref
