"""The reference interval tree and per-word reference witness generators.

:class:`Node` trees are the object-graph form of the midpoint-split tree
that ``rangesynth.intervals.Plan`` stores as pre-order arrays; the
reference decoders in ``test_regular.py`` and ``test_counting.py`` walk
them.  Each witness call builds its interval tree afresh, walks the word's states with
plain Python sets and writes every label with its own most-significant-bit-
first loop: no layout plan, no shared reach products.  The differential
tests in ``test_witness_plan.py`` hold ``witness_bp``/``witness_regular``
and ``witness_count`` to these, proof for proof and error for error.

``triangle_basis`` builds the short-edge triangle basis by per-vertex loops,
a sort and per-triangle checks, and ``synth_cycles``/``synth_ustconn`` walk
every vertex pair and look it up in that basis's incidence dict; they are
what the cached closed-form basis of ``rangesynth.graphs`` replaces, and
``test_graph_basis.py`` holds ``triangle_basis`` and the serialized
circuits to them.  ``decompose_cycles`` is the greedy descent over a Python
edge set, on this reference basis, that the diagonal sweep replaces, and
``witness_ustconn`` the set-based uSTConn witness built on it;
``test_graph_sweep.py`` holds ``witness_graph`` and ``decompose_cycles`` to
them.
"""

from dataclasses import dataclass

import numpy as np

from rangesynth.circuit import CircuitBuilder, _as_bits
from rangesynth.graphs import TriangleBasis, _graph_matrix
from rangesynth.languages import LanguageError, _bfs_dist
from rangesynth.regular import WitnessError
from tests.graph_reference import xor_tree


def _bits_for(k):
    return (k - 1).bit_length()


@dataclass
class Node:
    lo: int            # exclusive left endpoint
    hi: int            # inclusive right endpoint
    left: "Node | None" = None
    right: "Node | None" = None
    parent: "Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def build_tree(lo, hi):
    """Midpoint-split tree over (lo, hi]."""
    root = Node(lo, hi)
    stack = [root]
    while stack:
        node = stack.pop()
        if node.hi - node.lo > 1:
            mid = (node.lo + node.hi) // 2
            node.left = Node(node.lo, mid, parent=node)
            node.right = Node(mid, node.hi, parent=node)
            stack += [node.right, node.left]
    return root


def path_to_leaf(root, k):
    """Nodes from root down to the leaf covering position k."""
    out = [root]
    while not out[-1].is_leaf:
        node = out[-1]
        out.append(node.left if k <= node.left.hi else node.right)
    return out


def preorder(root):
    """The tree's nodes, each before its left and then its right subtree."""
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not node.is_leaf:
            stack += [node.right, node.left]
    return nodes


def blocks(hi, bits_of, start):
    """``(lo, hi, offset, bits)`` for every node of the midpoint-split tree
    over (0, hi] in pre-order, packed from ``start``; and the proof length.
    ``bits_of(lo, hi, is_root)`` is a node's label width."""
    out, off = [], start
    for node in preorder(build_tree(0, hi)):
        k = bits_of(node.lo, node.hi, node.parent is None)
        out.append((node.lo, node.hi, off, k))
        off += k
    return out, off


def _encode(proof, offset, bits, value):
    for i in range(bits):
        proof[offset + i] = (value >> (bits - 1 - i)) & 1


def bp_blocks(n, width):
    layer = [0] + [_bits_for(width)] * n + [0]
    return layer, blocks(n + 1, lambda a, b, root: layer[a] + layer[b], n)


def count_blocks(n):
    return blocks(n, lambda a, b, root: 0 if root or b - a == 1 else _bits_for(b - a + 1), n)


def proof_layout_text(n, width):
    layer, (nodes, _) = bp_blocks(n, width)
    return "".join([f"word 0 {n}\n"] + [
        f"label {lo} {hi} {off} {layer[lo]} {layer[hi]}\n" for lo, hi, off, _ in nodes])


def count_layout_text(n):
    nodes, _ = count_blocks(n)
    return "".join([f"word 0 {n}\n"] + [
        f"count {lo} {hi} {off} {bits}\n" for lo, hi, off, bits in nodes if bits])


def witness_bp(bp, word):
    """The proof encoding the lexicographically smallest accepting state
    sequence of ``word`` through ``bp``."""
    word = _as_bits(word, what="word")
    if len(word) != bp.n:
        raise WitnessError(f"word length {len(word)} != {bp.n}")
    rels = [(bp.rel1 if word[v - 1] else bp.rel0)[g] for g, v in enumerate(bp.gap_var)]
    rels.append(bp.accept[:, None])
    # alive[t]: states of layer t from which the rest of the word reaches the sink
    alive = [{0}]
    for rel in reversed(rels):
        alive.append({p for p in range(rel.shape[0])
                      if any(rel[p, q] for q in alive[-1])})
    alive.reverse()
    if 0 not in alive[0]:
        raise WitnessError("word is not in the language")
    states = [0]
    for rel, nxt in zip(rels, alive[1:]):
        states.append(min(q for q in nxt if rel[states[-1], q]))

    layer, (nodes, m) = bp_blocks(bp.n, bp.width)
    proof = np.zeros(m, dtype=np.uint8)
    proof[: bp.n] = word
    for lo, hi, off, bits in nodes:
        _encode(proof, off, bits, (states[lo] << layer[hi]) | states[hi])
    return proof


def witness_count(kind, n, t, word):
    """The word plus every slotted node's true count of ones."""
    word = _as_bits(word, what="word")
    if len(word) != n:
        raise WitnessError(f"word length {len(word)} != {n}")
    ones = int(word.sum())
    if kind == "threshold":
        if ones < t:
            raise WitnessError(f"word has {ones} ones, below threshold {t}")
    elif kind == "exact":
        if ones != t:
            raise WitnessError(f"word has {ones} ones, not exactly {t}")
    else:
        raise LanguageError(f"unknown counting kind {kind!r}")
    nodes, m = count_blocks(n)
    proof = np.zeros(m, dtype=np.uint8)
    proof[:n] = word
    for lo, hi, off, bits in nodes:
        _encode(proof, off, bits, int(word[lo:hi].sum()))
    return proof


def _pattern_ok(u, v, w):
    a, b, c = sorted((v - u, w - v, w - u))
    return (a == b and c == 2 * a) or (b == a + 1 and c == 2 * a + 1)


def triangle_basis(n):
    """For each base vertex u, the triples (u, u+i, u+2i) (even longest
    edge) and (u, u+i, u+2i+1) (odd longest edge, left edge shorter),
    sorted; each edge's incidence list in triangle order."""
    if n < 3:
        return TriangleBasis(n=n, triangles=[], edge_incidence={})
    tris = []
    for u in range(1, n + 1):
        for i in range(1, (n - u) // 2 + 1):
            tris.append((u, u + i, u + 2 * i))
        for i in range(1, n):
            w = u + 2 * i + 1
            if w > n:
                break
            tris.append((u, u + i, w))
    tris.sort()
    incidence = {}
    for idx, (u, v, w) in enumerate(tris):
        assert _pattern_ok(u, v, w)
        for e in ((u, v), (v, w), (u, w)):
            incidence.setdefault(e, []).append(idx)
    for e, lst in incidence.items():
        assert len(lst) <= 6, f"edge {e} lies in {len(lst)} triangles"
    assert len(tris) <= 1.5 * n * n, f"|T|={len(tris)} exceeds (3/2)n^2"
    return TriangleBasis(n=n, triangles=tris, edge_incidence=incidence)


def synth_cycles(n):
    """One coefficient input per reference triangle; each adjacency bit the
    XOR tree of its edge's triangles, pair by pair."""
    basis = triangle_basis(n)
    b = CircuitBuilder(len(basis))
    coeff = [b.input(i) for i in range(len(basis))]
    zero = b.const(0)
    out = [[zero] * n for _ in range(n)]
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            incident = basis.edge_incidence.get((u, v), [])
            wire = xor_tree(b, [coeff[i] for i in incident])
            out[u - 1][v - 1] = wire
            out[v - 1][u - 1] = wire
    b.set_outputs([out[i][j] for i in range(n) for j in range(n)])
    return b.build()


def synth_ustconn(n):
    """The Cycles coefficients then one mask bit per unordered pair; each
    pair's bit is its XOR tree, complemented at (1, n), OR its mask bit."""
    basis = triangle_basis(n)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    b = CircuitBuilder(len(basis) + len(pairs))
    coeff = [b.input(i) for i in range(len(basis))]
    mask = {e: b.input(len(basis) + i) for i, e in enumerate(pairs)}
    zero = b.const(0)
    out = [[zero] * n for _ in range(n)]
    for u, v in pairs:
        incident = basis.edge_incidence.get((u, v), [])
        cyc = xor_tree(b, [coeff[i] for i in incident])
        if (u, v) == (1, n):
            cyc = b.not_(cyc)
        wire = b.or_(cyc, mask[(u, v)])
        out[u - 1][v - 1] = wire
        out[v - 1][u - 1] = wire
    b.set_outputs([out[i][j] for i in range(n) for j in range(n)])
    return b.build()


def _graph_edges(m):
    n = len(m)
    return {(u + 1, v + 1) for u in range(n) for v in range(u + 1, n) if m[u, v]}


def decompose_cycles(G, trace=None):
    """Greedy descent: repeatedly XOR away the basis triangle whose longest
    edge is the graph's longest (smallest endpoints on ties), appending the
    potential (longest length, its multiplicity) to ``trace`` before each
    step."""
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


def shortest_path(m, s, t):
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


def witness_ustconn(G):
    """The greedy coefficients of path (+) edge (1, n), then one mask bit per
    unordered pair: the edges of G off the path."""
    m = _graph_matrix(G, undirected=True)
    n = len(m)
    path = shortest_path(m, 0, n - 1)
    if path is None:
        raise WitnessError("vertices 1 and n are not connected")
    rho = {(min(a, b) + 1, max(a, b) + 1) for a, b in zip(path, path[1:])}
    cyc_m = np.zeros((n, n), dtype=np.uint8)
    for u, v in rho ^ {(1, n)}:
        cyc_m[u - 1, v - 1] = cyc_m[v - 1, u - 1] = 1
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    mask = [m[u - 1, v - 1] and (u, v) not in rho for u, v in pairs]
    return np.concatenate([decompose_cycles(cyc_m), np.array(mask, dtype=np.uint8)])
