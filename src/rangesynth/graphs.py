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

import numpy as np

from .circuit import Circuit, CircuitBuilder, _as_bits
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


def _graph_edges(m: np.ndarray):
    n = len(m)
    return {(u + 1, v + 1) for u in range(n) for v in range(u + 1, n) if m[u, v]}


def _graph_matrix(G, undirected: bool) -> np.ndarray:
    """The adjacency matrix of a graph word or of a v x v matrix."""
    return _as_matrix(_as_bits(G, what="graph").reshape(-1), undirected)


def decompose_cycles(G, trace: list | None = None) -> np.ndarray:
    """Coefficients c with eval(synth_cycles(n), c) = G, by greedy descent.

    Repeatedly takes the longest edge (smallest endpoints on ties), XORs
    away the unique/&canonical basis triangle having it as its longest edge,
    and stops at the empty graph; the (longest length, multiplicity) pair
    strictly decreases each round.  When ``trace`` is given, the potential
    d(G) = (longest edge length, its multiplicity) is appended before each
    step.
    """
    m = _graph_matrix(G, undirected=True)
    n = len(m)
    if np.any(m.sum(axis=1) % 2):
        raise WitnessError("graph has an odd-degree vertex; not in Cycles")
    basis = triangle_basis(n)
    index = {t: i for i, t in enumerate(basis.triangles)}
    coeffs = np.zeros(len(basis), dtype=np.uint8)
    edges = _graph_edges(m)
    while edges:
        u, v = max(edges, key=lambda e: (e[1] - e[0], (-e[0], -e[1])))
        d = v - u
        if trace is not None:
            mult = sum(1 for a, b in edges if b - a == d)
            trace.append((d, mult))
        if d == 1:
            raise WitnessError("length-1 longest edge cannot occur in Cycles")
        tri = (u, u + d // 2, v)
        i = index.get(tri)
        assert i is not None, f"basis triangle {tri} missing"
        coeffs[i] ^= 1
        for e in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])):
            edges.symmetric_difference_update({e})
    return coeffs


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
    """Lexicographically smallest shortest s-t path (0-indexed vertices)."""
    dist = _bfs_dist(m, t)
    if dist[s] < 0:
        return None
    path = [s]
    cur = s
    while cur != t:
        choices = [int(v) for v in np.nonzero(m[cur])[0] if dist[v] == dist[cur] - 1]
        cur = min(choices)
        path.append(cur)
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
        rho = {(min(a, b) + 1, max(a, b) + 1) for a, b in zip(path, path[1:])}
        cyc_m = np.zeros((n, n), dtype=np.uint8)
        for u, v in rho ^ {(1, n)}:
            cyc_m[u - 1, v - 1] = cyc_m[v - 1, u - 1] = 1
        mask = [m[u - 1, v - 1] and (u, v) not in rho for u, v in _pairs(n)]
        return np.concatenate([decompose_cycles(cyc_m), np.array(mask, dtype=np.uint8)])
    reached = _bfs_dist(m, 0) >= 0
    if reached[-1]:
        raise WitnessError("vertex n is reachable from vertex 1")
    X = reached.astype(np.uint8)[1 : n - 1]
    return np.concatenate([m.reshape(-1).astype(np.uint8), X])
