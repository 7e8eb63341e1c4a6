"""Per-gate reference synthesizers for the graph proof systems.

These are the gate-by-gate builds that ``rangesynth.graphs`` replaced with
one ``CircuitBuilder.stamp`` per family: every edge's XOR tree, mask OR and
cut gate is emitted through the scalar constructors, which fold constants
and share NOTs as they go.  The differential tests require the stamped
circuits to serialize byte for byte as these do.
"""

import numpy as np

from rangesynth.circuit import CircuitBuilder
from rangesynth.graphs import _basis, _check_size


def xor_tree(b: CircuitBuilder, wires) -> int:
    """Balanced tree of ``b.xor`` over the wires, paired as
    ``CircuitBuilder._tree`` pairs them; CONST 0 for no wires."""
    return b._tree(b.xor, list(wires) or [b.const(0)])


def synth_cycles(n: int):
    _check_size("cycles", n)
    tris, pairs, incidence, _, _ = _basis(n)
    b = CircuitBuilder(len(tris))
    coeff = [b.input(i) for i in range(len(tris))]
    zero = b.const(0)
    edges = [xor_tree(b, [coeff[i] for i in row if i >= 0])
             for row in incidence.tolist()]
    out = np.full((n, n), zero)
    out[pairs] = out.T[pairs] = edges
    b.set_outputs(out.reshape(-1).tolist())
    return b.build()


def synth_ustconn(n: int):
    _check_size("ustconn", n)
    tris, pairs, incidence, _, _ = _basis(n)
    k = len(tris)
    b = CircuitBuilder(k + len(incidence))
    coeff = [b.input(i) for i in range(k)]
    mask = [b.input(k + p) for p in range(len(incidence))]
    zero = b.const(0)
    edges = []
    for p, row in enumerate(incidence.tolist()):
        cyc = xor_tree(b, [coeff[i] for i in row if i >= 0])
        if p == n - 2:  # the pair (1, n), last of the first row
            cyc = b.not_(cyc)
        edges.append(b.or_(cyc, mask[p]))
    out = np.full((n, n), zero)
    out[pairs] = out.T[pairs] = edges
    b.set_outputs(out.reshape(-1).tolist())
    return b.build()


def synth_unreach(n: int):
    _check_size("unreach", n)
    b = CircuitBuilder(n * n + n - 2)
    A = [[b.input(i * n + j) for j in range(n)] for i in range(n)]
    X = [b.const(1)] + [b.input(n * n + i) for i in range(n - 2)] + [b.const(0)]
    outs = []
    for i in range(n):
        for j in range(n):
            cut = b.and_(X[i], b.not_(X[j]))
            outs.append(b.and_(A[i][j], b.not_(cut)))
    b.set_outputs(outs)
    return b.build()
