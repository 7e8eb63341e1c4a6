"""Per-gate reference implementations of evaluation, depth and alternations.

These are the straightforward gate-by-gate loops the levelized kernels in
``rangesynth.circuit`` replaced.  They are slow but obviously follow the
definitions in the circuit module docstring, so the differential tests
compare the fast paths against them.
"""

import numpy as np

from rangesynth.circuit import AND, INPUT, NOT, OR


def eval_reference(c, X) -> np.ndarray:
    """(N, num_inputs) bits -> (N, num_outputs) bits, one gate at a time."""
    X = np.asarray(X, dtype=np.uint8)
    kinds, a0, a1 = c.kinds, c.arg0, c.arg1
    vals = [None] * c.num_gates
    for i in range(c.num_gates):
        k = kinds[i]
        if k == AND:
            vals[i] = vals[a0[i]] & vals[a1[i]]
        elif k == OR:
            vals[i] = vals[a0[i]] | vals[a1[i]]
        elif k == NOT:
            vals[i] = 1 - vals[a0[i]]
        elif k == INPUT:
            vals[i] = X[:, a0[i]]
        else:
            vals[i] = np.full(len(X), a0[i], dtype=np.uint8)
    out = np.empty((len(X), len(c.outputs)), dtype=np.uint8)
    for col, o in enumerate(c.outputs):
        out[:, col] = vals[o]
    return out


def depth_reference(c) -> int:
    kinds, a0, a1 = c.kinds, c.arg0, c.arg1
    d = [0] * c.num_gates
    for i in range(c.num_gates):
        k = kinds[i]
        if k == NOT:
            d[i] = d[a0[i]] + 1
        elif k in (AND, OR):
            d[i] = max(d[a0[i]], d[a1[i]]) + 1
    return max((d[o] for o in c.outputs), default=0)


def alternations_reference(c) -> int:
    # blocks[i][pol] / types[i][pol]: max count of maximal AND/OR blocks on a
    # path ending at gate i when the gate is observed in polarity pol
    # (0 positive, 1 negated), plus the type the path currently ends in
    # (0 none, 1 AND, 2 OR).
    kinds, a0, a1 = c.kinds, c.arg0, c.arg1
    blocks = [[0, 0] for _ in range(c.num_gates)]
    types = [[0, 0] for _ in range(c.num_gates)]
    for i in range(c.num_gates):
        k = kinds[i]
        if k == NOT:
            s = a0[i]
            blocks[i] = blocks[s][::-1]
            types[i] = types[s][::-1]
        elif k in (AND, OR):
            for pol in (0, 1):
                t = 1 if (k == AND) == (pol == 0) else 2
                best = 1
                for s in (a0[i], a1[i]):
                    sb, st = blocks[s][pol], types[s][pol]
                    best = max(best, sb if st == t else sb + 1)
                blocks[i][pol] = best
                types[i][pol] = t
    return max((blocks[o][0] for o in c.outputs), default=0)

