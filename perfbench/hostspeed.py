"""Fixed reference kernels that measure how fast the host runs right now.

On a shared VM the host's speed drifts: this benchmark was defined on a
2-vCPU guest whose speed switched between spells up to 2x apart, each
lasting from seconds to minutes, with no steal time visible to the guest.
No clock removes that (a process's CPU time tracks its wall time), so the
benchmark times these kernels between its own timed calls and scales each
call by how much slower or faster they ran around it than nominal.  The
kernels never change with the package, so work the package saves or adds
still shows in full.

The main kernel mixes the two kinds of work the package does:
interpreter-bound dict, list and integer traffic (as in gate lowering, the
metric kernels and the witnesses) and small uint8 array operations (as in
``eval_batch``), about four parts to one.  Over a four-minute trace of
spells, the package's witnesses, parse, alternations and synthesis changed
speed with this mix more closely than with either kind of work alone.

Calls that stream arrays far larger than the cache change speed less than
that: on the same VM, the soundness checks of compile-large and nc0-graphs
(2^14-row proof batches of 171 to 1,638 columns, and the reachability
oracle's matrix squaring) moved like an even mix of the main kernel and the
memory kernel, which gathers columns of a 16 MiB array.  Those calls are
marked ``memory_bound`` and scaled by that mix.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Scaled times are seconds on a host that runs the main kernel in NOMINAL_S.
# The 2-vCPU VM the benchmark was defined on ran it in 2.5 to 5 ms,
# depending on the spell, and ran the memory kernel in 0.54 times the main
# kernel's time (median over 3,000 pairs of timings).
NOMINAL_S = 0.004
NOMINAL_MEMORY_S = 0.0022
MEMORY_SHARE = 0.5  # of the reference for memory-bound calls

_TABLE = list(range(256))
_ROWS = np.random.default_rng(0).integers(0, 2, (64, 512), dtype=np.uint8)
_PERM = np.random.default_rng(1).permutation(512)
_BIG = []  # the memory kernel's array, made on first use


def _kernel() -> int:
    table = {}
    acc = 0
    for i in range(8000):
        key = (i * 2654435761) & 1023
        acc += table.get(key, i) ^ _TABLE[i & 255]
        table[key] = acc & 0xFFFF
    x = _ROWS
    for _ in range(12):
        x = (x[:, _PERM] & _ROWS) | (x ^ _ROWS)
    return acc + int(x[0, 0])


def _memory_kernel() -> int:
    if not _BIG:
        _BIG.append(np.arange(1 << 24, dtype=np.uint8).reshape(1 << 14, 1 << 10))
    big = _BIG[0]
    acc = 0
    for j in range(4):
        acc += int((big[:, (j * 337) % 1024] & big[:, (j * 611 + 5) % 1024])[7])
    return acc


def reference_s() -> tuple:
    """Seconds one run of the main kernel and of the memory kernel take now."""
    t0 = time.perf_counter()
    _kernel()
    t1 = time.perf_counter()
    _memory_kernel()
    return t1 - t0, time.perf_counter() - t1


def scale(refs, memory_bound: bool = False) -> float:
    """Factor that turns seconds measured during ``refs`` into nominal ones."""
    slow = statistics.median(r[0] for r in refs) / NOMINAL_S
    if memory_bound:
        slow = ((1 - MEMORY_SHARE) * slow + MEMORY_SHARE
                * statistics.median(r[1] for r in refs) / NOMINAL_MEMORY_S)
    return 1 / slow
