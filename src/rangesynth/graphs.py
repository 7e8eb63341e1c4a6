"""Constant-locality proof systems for graph languages.

Cycles (all vertex degrees even) is the GF(2) span of a short-edge triangle
basis in which every edge lies in at most six triangles, so each adjacency
bit is a bounded XOR of coefficient inputs.  uSTConn adds a mask bit per
edge on top of the Cycles circuit with the (s,t) entry complemented, and
UnReach gates each directed edge by a claimed cut.  Vertices are 1-indexed
with s = 1 and t = n; words are row-major n x n adjacency matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import Circuit, CircuitBuilder, _as_bits
from .intervals import PLAN_CACHE
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

    Triples (u < v < w) whose sorted edge lengths are (i, i, 2i) or
    (i, i+1, 2i+1), in lexicographic order; ``edge_incidence`` maps each
    unordered edge to the indices of the triangles containing it.
    """

    n: int
    triangles: list
    edge_incidence: dict

    def __len__(self) -> int:
        return len(self.triangles)


def _pattern_ok(u: int, v: int, w: int) -> bool:
    a, b, c = sorted((v - u, w - v, w - u))
    return (a == b and c == 2 * a) or (b == a + 1 and c == 2 * a + 1)


def triangle_basis(n: int) -> TriangleBasis:
    if n < 3:
        return TriangleBasis(n=n, triangles=[], edge_incidence={})
    # For each base vertex, emit the compatible triples directly instead of
    # scanning all O(n^3) triples: (u, u+i, u+2i) covers even longest edges,
    # (u, u+i, u+2i+1) covers odd ones.  Only the left-edge-shorter spacing
    # of the odd pattern is kept: it is the triangle decompose_cycles picks,
    # and including the mirrored spacing would put even-length edges in 7
    # triangles, breaking the <= 6 incidence bound.
    tris = []
    for u in range(1, n + 1):
        max_i = (n - u) // 2
        for i in range(1, max_i + 1):
            tris.append((u, u + i, u + 2 * i))  # lengths (i, i, 2i)
        for i in range(1, n):
            w = u + 2 * i + 1
            if w > n:
                break
            tris.append((u, u + i, w))  # lengths (i, i+1, 2i+1)
    tris.sort()
    incidence: dict = {}
    for idx, (u, v, w) in enumerate(tris):
        assert _pattern_ok(u, v, w)
        for e in ((u, v), (v, w), (u, w)):
            incidence.setdefault(e, []).append(idx)
    for e, lst in incidence.items():
        assert len(lst) <= 6, f"edge {e} lies in {len(lst)} triangles"
    assert len(tris) <= 1.5 * n * n, f"|T|={len(tris)} exceeds (3/2)n^2"
    # even-length edges must be the longest edge of exactly one triangle
    return TriangleBasis(n=n, triangles=tris, edge_incidence=incidence)


# ---------------------------------------------------------------------------
# Cycles


def _check_size(kind: str, n: int):
    """Refuse a vertex count no proof system is built for, before any
    circuit or witness is."""
    least = {"cycles": 3, "ustconn": 2, "unreach": 2}.get(kind)
    if least is None:
        raise EncodingError(f"unknown graph kind {kind!r}")
    if n < least:
        raise EncodingError(f"{kind} needs n >= {least} vertices, got n={n}")


def synth_cycles(n: int) -> Circuit:
    """Inputs: one coefficient per basis triangle; output: their GF(2) sum."""
    _check_size("cycles", n)
    basis = triangle_basis(n)
    b = CircuitBuilder(len(basis))
    coeff = [b.input(i) for i in range(len(basis))]
    zero = b.const(0)
    out = [[zero] * n for _ in range(n)]
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            incident = basis.edge_incidence.get((u, v), [])
            wire = b.xor_tree([coeff[i] for i in incident])
            out[u - 1][v - 1] = wire
            out[v - 1][u - 1] = wire
    b.set_outputs([out[i][j] for i in range(n) for j in range(n)])
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


@lru_cache(maxsize=PLAN_CACHE)
def _diagonals(v: int) -> tuple:
    """Read-only indexes of the diagonal sweep on v vertices.

    ``gather[d, u]`` is the position of edge (u, u+d) in a flattened v x v
    matrix (0-indexed; any position when u + d >= v), and ``order`` lists
    the positions [d, u], in the flattened gathered array, of the longest
    edges of the basis triangles (u, u + d//2, u+d) in basis order: by
    base u, then by length d >= 2.
    """
    d, u = np.ogrid[:v, :v]
    gather = u * v + np.minimum(u + d, v - 1)
    order = np.array([d * v + u for u in range(v) for d in range(2, v - u)],
                     dtype=np.intp)
    gather.flags.writeable = order.flags.writeable = False
    return gather, order


def decompose_cycles(G, trace: list | None = None) -> np.ndarray:
    """Coefficients c with eval(synth_cycles(n), c) = G, by a diagonal sweep.

    Greedy descent -- take the longest edge (u, u+d), XOR away the basis
    triangle (u, u + d//2, u+d) that has it as its longest edge, repeat --
    only ever toggles edges shorter than d, so the triangle's coefficient is
    edge (u, u+d) once every longer edge has been cleared.  The sweep
    gathers the edges into diagonals of one length each and clears them
    from length n-1 down to 2, one slice XOR per side of the triangles.
    When ``trace`` is given it receives the greedy descent's potential
    d(G) = (longest edge length, its multiplicity) before each step: (d, k),
    (d, k-1), ..., (d, 1) for each length d with k edges.
    """
    m = _graph_matrix(G, undirected=True)
    if np.any(m.sum(axis=1) % 2):
        raise WitnessError("graph has an odd-degree vertex; not in Cycles")
    v = len(m)
    gather, order = _diagonals(v)
    D = m.reshape(-1)[gather]  # a copy: D[d, u] is edge (u, u+d)
    for d in range(v - 1, 1, -1):
        c, h = D[d, : v - d], d // 2
        if trace is not None:
            trace.extend((d, k) for k in range(np.count_nonzero(c), 0, -1))
        D[h, : v - d] ^= c  # (u, u+h)
        D[d - h, h : h + v - d] ^= c  # (u+h, u+d)
    # Each step XORs a triangle, so every degree stays even, and a nonempty
    # set of length-1 edges has a vertex of degree 1: none is left.
    assert v < 2 or not D[1, : v - 1].any(), "length-1 residue in Cycles"
    return D.reshape(-1)[order]


# ---------------------------------------------------------------------------
# uSTConn and UnReach


def _pairs(n: int):
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


def synth_ustconn(n: int) -> Circuit:
    """Inputs: cycles coefficients then one mask bit per unordered pair."""
    _check_size("ustconn", n)
    basis = triangle_basis(n)
    pairs = _pairs(n)
    b = CircuitBuilder(len(basis) + len(pairs))
    coeff = [b.input(i) for i in range(len(basis))]
    mask = {e: b.input(len(basis) + i) for i, e in enumerate(pairs)}
    zero = b.const(0)
    out = [[zero] * n for _ in range(n)]
    for u, v in pairs:
        incident = basis.edge_incidence.get((u, v), [])
        cyc = b.xor_tree([coeff[i] for i in incident])
        if (u, v) == (1, n):
            cyc = b.not_(cyc)
        wire = b.or_(cyc, mask[(u, v)])
        out[u - 1][v - 1] = wire
        out[v - 1][u - 1] = wire
    b.set_outputs([out[i][j] for i in range(n) for j in range(n)])
    return b.build()


def synth_unreach(n: int) -> Circuit:
    """Inputs: n^2 adjacency bits then cut bits X_2..X_{n-1}; s=1, t=n."""
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
        return decompose_cycles(m)
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
        upper = np.triu_indices(n, 1)  # the unordered pairs in _pairs order
        mask = m[upper] & (rho[upper] ^ 1)
        return np.concatenate([decompose_cycles(cyc_m), mask])
    reached = _bfs_dist(m, 0) >= 0
    if reached[-1]:
        raise WitnessError("vertex n is reachable from vertex 1")
    X = reached.astype(np.uint8)[1 : n - 1]
    return np.concatenate([m.reshape(-1).astype(np.uint8), X])
