"""Host reference loop: a fixed amount of work timed next to every
repetition, so that repetition times can be expressed at one host speed.

The host this benchmark was built on switches between speeds 1.2-1.8x
apart, for periods from under a second to over half a minute, and the
switch slows interpreter-bound code more than streaming numpy code.  The
loop therefore mixes the three kinds of work the measured program does:
integer arithmetic in the interpreter, a disjoint-set labeling written
in the program's own style (method calls, numpy scalar indexing, dict,
tuple and frozenset traffic), and many small numpy calls.  It never
changes, so a later change to the program moves repetition times and
leaves this loop alone.
"""
from __future__ import annotations

import time

import numpy as np

# Reference-loop time on the 2-vCPU build host in its fast state (Python
# 3.11, numpy 2.4.6).  Normalized times read as seconds on that host.
REF_SECONDS = 0.0175

_SIDE = 40
_rng = np.random.default_rng(20070528)
_BONDS = []
for _i in range(_SIDE):
    for _j in range(_SIDE):
        if _j + 1 < _SIDE:
            _BONDS.append((_i * _SIDE + _j, _i * _SIDE + _j + 1))
        if _i + 1 < _SIDE:
            _BONDS.append((_i * _SIDE + _j, (_i + 1) * _SIDE + _j))
_BOND_SITES = np.array(_BONDS, dtype=np.int64)
_STATE = (_rng.random(len(_BONDS)) < 0.6).astype(np.uint8)
_SITES = [(i, j) for i in range(_SIDE) for j in range(_SIDE)]
_SMALL = [np.arange(50) % (k + 3) for k in range(20)]


def _arith(n: int = 100_000) -> int:
    s = 0
    for i in range(n):
        s += (i * i) % 7
    return s


class _DisjointSet:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        p = self.parent
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri


def _label() -> int:
    ds = _DisjointSet(_SIDE * _SIDE)
    for i in np.flatnonzero(_STATE):
        ds.union(int(_BOND_SITES[i, 0]), int(_BOND_SITES[i, 1]))
    groups: dict[int, list[int]] = {}
    for i in range(_SIDE * _SIDE):
        groups.setdefault(ds.find(i), []).append(i)
    total = 0
    for members in groups.values():
        sites = frozenset(_SITES[i] for i in members)
        edge = any(s[0] in (0, _SIDE - 1) or s[1] in (0, _SIDE - 1)
                   for s in sites)
        center = tuple(sum(s[k] for s in sites) // len(sites)
                       for k in range(2))
        total += len(sites) + edge + center[0]
    return total


def _numpy_small(n: int = 800) -> int:
    s = 0
    for i in range(n):
        s += int(np.unique(_SMALL[i % 20]).size)
    return s


def run() -> float:
    """Run the loop once; return its wall time in seconds."""
    t0 = time.perf_counter()
    _arith()
    for _ in range(3):
        _label()
    _numpy_small()
    return time.perf_counter() - t0
