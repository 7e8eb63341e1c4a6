"""Constant-locality proof systems for graph languages.

Cycles (all vertex degrees even) is the GF(2) span of a short-edge triangle
basis in which every edge lies in at most five triangles, so each adjacency
bit is a bounded XOR of coefficient inputs.  uSTConn adds a mask bit per
edge on top of the Cycles circuit with the (s,t) entry complemented, and
UnReach gates each directed edge by a claimed cut.  Vertices are 1-indexed
with s = 1 and t = n; words are row-major n x n adjacency matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import (AND, MAX_INPUTS, NOT, OR, Circuit, CircuitBuilder, _as_bits,
                      _xor_template)
from .languages import EncodingError, _as_matrix, _bfs_dist
from .regular import WitnessError

__all__ = [
    "TriangleBasis",
    "triangle_basis",
    "synth_cycles",
    "decompose_cycles",
    "synth_ustconn",
    "synth_unreach",
    "witness_graph",
]


@dataclass
class TriangleBasis:
    """Short-edge triangle basis of the cycle space on [n].

    The triangles (u, u + d//2, u + d) for 2 <= d <= n-1 and 1 <= u <= n-d,
    in lexicographic order (by u, then by d); their sorted edge lengths are
    (i, i, 2i) or (i, i+1, 2i+1).  ``edge_incidence`` maps each unordered
    edge that lies in a triangle to the ascending indices of those
    triangles: at most five, since edge (a, a+L) is the longest edge of one
    triangle (L >= 2), the first side of those with d in {2L, 2L+1} starting
    at a and the second side of those with d in {2L-1, 2L} starting at
    a - d//2.
    """

    n: int
    triangles: list
    edge_incidence: dict

    def __len__(self) -> int:
        return len(self.triangles)


@lru_cache(maxsize=4)  # a few vertex counts; each basis is about 52 v^2 bytes
def _basis(v: int) -> tuple:
    """:class:`TriangleBasis` on v vertices as read-only 0-indexed arrays.

    ``tris`` is (k, 3), ``pairs`` the unordered pairs (rows, cols) in
    row-major order and ``incidence[p]`` the triangles containing pair p,
    ascending and padded in front with -1 to five.  ``gather[d, u]`` is the
    position of edge (u, u+d) in a flattened v x v matrix (any position when
    u + d >= v), and ``order`` the position [d, u] of each triangle's
    longest edge in the flattened gathered array: the sweep's indexes.
    """
    u, w = np.triu_indices(v, 2)  # by u, then by d = w - u
    tris = np.stack([u, u + (w - u) // 2, w], axis=1)
    a, b = pairs = np.triu_indices(v, 1)
    A, L = a[:, None], (b - a)[:, None]
    # pair (a, a+L) is a side of the triangles (s, s + d//2, s + d) for these
    s = np.hstack([A - L, A - L + 1, A, A, A])
    d = np.hstack([2 * L, 2 * L - 1, L, 2 * L, 2 * L + 1])
    ok = (d >= 2) & (s >= 0) & (s + d < v)
    # bases 0..s-1 hold (v-2) + ... + (v-1-s) = s(2v-3-s)/2 triangles
    incidence = np.sort(np.where(ok, s * (2 * v - 3 - s) // 2 + d - 2, -1), axis=1)
    dd, uu = np.ogrid[:v, :v]
    gather = uu * v + np.minimum(uu + dd, v - 1)
    order = (w - u) * v + u
    for arr in (tris, a, b, incidence, gather, order):
        arr.flags.writeable = False
    return tris, pairs, incidence, gather, order


def triangle_basis(n: int) -> TriangleBasis:
    tris, (a, b), incidence, _, _ = _basis(n)
    inside = incidence >= 0
    flat = incidence[inside].tolist()
    ends = np.cumsum(inside.sum(axis=1)).tolist()
    edge_incidence = {(u, v): flat[s:e] for u, v, s, e in zip(
        (a + 1).tolist(), (b + 1).tolist(), [0] + ends, ends) if s < e}
    return TriangleBasis(n=n, triangles=list(map(tuple, (tris + 1).tolist())),
                         edge_incidence=edge_incidence)


# ---------------------------------------------------------------------------
# Cycles


def _check_size(kind: str, n: int):
    """Refuse a vertex count no proof system is built for, or whose proof
    is wider than a circuit's ``MAX_INPUTS``, before any circuit, witness
    or index array is sized."""
    least, width = {"cycles": (3, (n - 1) * (n - 2) // 2),
                    "ustconn": (2, (n - 1) ** 2),
                    "unreach": (2, n * n + n - 2)}.get(kind, (None, None))
    if least is None:
        raise EncodingError(f"unknown graph kind {kind!r}")
    if n < least:
        raise EncodingError(f"{kind} needs n >= {least} vertices, got n={n}")
    if width > MAX_INPUTS:
        raise EncodingError(f"{kind} on n={n} vertices needs {width} proof "
                            f"bits, more than the {MAX_INPUTS} a circuit takes")


# Stamp templates of an edge's XOR over its row of ``_basis``'s incidence,
# by arity: a row's k coefficients sit in its last k columns.
_EDGE_XOR = [_xor_template(k, 5 - k) for k in range(1, 6)]


def _edge_rows(coeff: list, zero: int, incidence: np.ndarray) -> tuple:
    """Each pair's incidence row as wires, its padding as the zero wire,
    and the index of its template in ``_EDGE_XOR``.  An empty row (uSTConn's
    one pair at n = 2) takes the one-leaf template, over its zero padding."""
    arity = (incidence >= 0).sum(axis=1)
    return np.array(coeff + [zero])[incidence], np.maximum(arity, 1) - 1


def _symmetric(n: int, pairs, edges, zero: int) -> list:
    """Outputs of the symmetric zero-diagonal matrix with these pair wires."""
    out = np.full((n, n), zero)
    out[pairs] = out.T[pairs] = edges
    return out.reshape(-1).tolist()


def synth_cycles(n: int) -> Circuit:
    """Inputs: one coefficient per basis triangle; output: their GF(2) sum."""
    _check_size("cycles", n)
    tris, pairs, incidence, _, _ = _basis(n)
    b = CircuitBuilder(len(tris))
    coeff = b.inputs(0, len(tris))
    zero = b.const(0)
    edges = b.stamp(_EDGE_XOR, *_edge_rows(coeff, zero, incidence))
    b.set_outputs(_symmetric(n, pairs, edges, zero))
    return b.build()


def _graph_matrix(G, undirected: bool) -> np.ndarray:
    """The adjacency matrix of a graph word or of a v x v matrix."""
    bits = _as_bits(G, what="graph")
    if bits.ndim == 2 and bits.shape[0] == bits.shape[1]:
        bits = bits.reshape(-1)
    elif bits.ndim != 1:
        raise EncodingError("graph must be a word or a square matrix, "
                            f"got shape {bits.shape}")
    return _as_matrix(bits, undirected)


def decompose_cycles(G, trace: list | None = None) -> np.ndarray:
    """Coefficients c with eval(synth_cycles(n), c) = G, by a diagonal sweep.

    Greedy descent -- take the longest edge (u, u+d), XOR away the basis
    triangle (u, u + d//2, u+d) that has it as its longest edge, repeat --
    only ever toggles edges shorter than d, so the triangle's coefficient is
    edge (u, u+d) once every longer edge has been cleared.  The sweep
    gathers the edges into diagonals of one length each and clears them
    from length n-1 down to 2, one XOR per side of the triangles, on each
    diagonal held as a Python int (bit u is edge (u, u+d)).
    When ``trace`` is given it receives the greedy descent's potential
    d(G) = (longest edge length, its multiplicity) before each step: (d, k),
    (d, k-1), ..., (d, 1) for each length d with k edges.
    """
    return _sweep(_graph_matrix(G, undirected=True), trace)


def _sweep(m: np.ndarray, trace: list | None = None) -> np.ndarray:
    """:func:`decompose_cycles` of a matrix :func:`_graph_matrix` has read."""
    if np.any(m.sum(axis=1) % 2):
        raise WitnessError("graph has an odd-degree vertex; not in Cycles")
    v = len(m)
    _, _, _, gather, order = _basis(v)
    packed = np.packbits(m.reshape(-1)[gather], axis=1, bitorder="little")
    # diag[d] has bit u set for edge (u, u+d); gather's padding is cut off
    diag = [int.from_bytes(row.tobytes(), "little") & ((1 << (v - d)) - 1)
            for d, row in enumerate(packed)]
    for d in range(v - 1, 1, -1):
        c, h = diag[d], d // 2
        if trace is not None:
            trace.extend((d, j) for j in range(c.bit_count(), 0, -1))
        diag[h] ^= c  # (u, u+h)
        diag[d - h] ^= c << h  # (u+h, u+d)
    # Each step XORs a triangle, so every degree stays even, and a nonempty
    # set of length-1 edges has a vertex of degree 1: none is left.
    assert v < 2 or not diag[1], "length-1 residue in Cycles"
    k = packed.shape[1]
    out = np.frombuffer(b"".join(x.to_bytes(k, "little") for x in diag), dtype=np.uint8)
    bits = np.unpackbits(out.reshape(v, k), axis=1, count=v, bitorder="little")
    return bits.reshape(-1)[order]


# ---------------------------------------------------------------------------
# uSTConn and UnReach


def _or_mask(template, negate: bool) -> tuple:
    """A template's root, negated if asked, ORed with leaf column 5."""
    gates, root = template
    if negate:
        gates, root = gates + ((NOT, root, 0),), len(gates)
    return gates + ((OR, root, -6),), len(gates)


# uSTConn's edge templates: _EDGE_XOR's, then the same complemented
_MASKED_XOR = [_or_mask(t, negate) for negate in (False, True) for t in _EDGE_XOR]


def synth_ustconn(n: int) -> Circuit:
    """Inputs: cycles coefficients then one mask bit per unordered pair."""
    _check_size("ustconn", n)
    tris, pairs, incidence, _, _ = _basis(n)
    k = len(tris)
    b = CircuitBuilder(k + len(incidence))
    coeff = b.inputs(0, k)
    mask = b.inputs(k, len(incidence))
    zero = b.const(0)
    rows, which = _edge_rows(coeff, zero, incidence)
    which[n - 2] += len(_EDGE_XOR)  # the pair (1, n), last of the first row
    edges = b.stamp(_MASKED_XOR, np.column_stack([rows, mask]), which)
    b.set_outputs(_symmetric(n, pairs, edges, zero))
    return b.build()


# an UnReach output over leaf columns (X[i], X[j], A[i][j]):
# and_(A[i][j], not_(and_(X[i], not_(X[j]))))
_CUT_GATE = (((NOT, -2, 0), (AND, -1, 0), (NOT, 1, 0), (AND, -3, 2)), 3)


def synth_unreach(n: int) -> Circuit:
    """Inputs: n^2 adjacency bits then cut bits X_2..X_{n-1}; s=1, t=n."""
    _check_size("unreach", n)
    b = CircuitBuilder(n * n + n - 2)
    A = b.inputs(0, n * n)
    X = np.array([b.const(1)] + b.inputs(n * n, n - 2) + [b.const(0)])
    i, j = np.divmod(np.arange(n * n), n)
    b.set_outputs(b.stamp(_CUT_GATE, np.column_stack([X[i], X[j], A])).tolist())
    return b.build()


# ---------------------------------------------------------------------------
# witnesses


def _shortest_path(m: np.ndarray, s: int, t: int):
    """Lexicographically smallest shortest s-t path (0-indexed vertices).

    Distances to t are levelled only until s is reached; each step then
    reads vertices nearer to t than s, all of which are levelled.
    """
    dist = _bfs_dist(m, t, until=s)
    if dist[s] < 0:
        return None
    path = [s]
    while path[-1] != t:
        cur = path[-1]
        path.append(int(np.flatnonzero(m[cur] & (dist == dist[cur] - 1))[0]))
    return path


def witness_graph(kind: str, G) -> np.ndarray:
    """Proof vector reproducing the member graph G under the kind's circuit."""
    m = _graph_matrix(G, undirected=kind != "unreach")
    n = len(m)
    _check_size(kind, n)
    if kind == "cycles":
        return _sweep(m)
    if kind == "ustconn":
        path = _shortest_path(m, 0, n - 1)
        if path is None:
            raise WitnessError("vertices 1 and n are not connected")
        a, b = np.array(path[:-1]), np.array(path[1:])
        rho = np.zeros((n, n), dtype=np.uint8)  # the path's edges, u < v
        rho[np.minimum(a, b), np.maximum(a, b)] = 1
        cyc_m = rho.copy()
        cyc_m[0, n - 1] ^= 1
        cyc_m |= cyc_m.T
        pairs = _basis(n)[1]
        mask = m[pairs] & (rho[pairs] ^ 1)
        return np.concatenate([_sweep(cyc_m), mask])
    reached = _bfs_dist(m, 0) >= 0
    if reached[-1]:
        raise WitnessError("vertex n is reachable from vertex 1")
    X = reached.astype(np.uint8)[1 : n - 1]
    return np.concatenate([m.reshape(-1).astype(np.uint8), X])
