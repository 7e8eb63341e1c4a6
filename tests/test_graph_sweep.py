"""Graph witnesses by the diagonal sweep against the greedy reference.

``graphs.decompose_cycles`` clears the edges one diagonal (edge length) at a
time through a per-v cached index; ``tests/witness_reference.py`` keeps the
greedy descent over a Python edge set and the set-based uSTConn witness it
replaces.  Coefficients, ``trace`` lists, proofs and error text must match
them exactly, and a witness must neither rebuild the triangle basis nor write
the caller's matrix.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangesynth import graphs
from rangesynth.circuit import eval_circuit
from rangesynth.graphs import decompose_cycles, synth_cycles, synth_ustconn, witness_graph
from rangesynth.languages import USTConn, member
from tests import witness_reference as ref
from tests.test_witness_plan import _outcome


@lru_cache(maxsize=None)
def _cycles(v):
    return synth_cycles(v)


@lru_cache(maxsize=None)
def _ustconn(v):
    return synth_ustconn(v)


def _traced(fn, G):
    """``_outcome`` of ``fn(G, trace=...)`` and the trace it left."""
    trace = []
    return _outcome(lambda: fn(G, trace=trace)), trace


def _triangle_sum(rng, v, count):
    """The XOR of ``count`` random basis triangles: an even-degree graph."""
    tris = np.array(graphs.triangle_basis(v).triangles) - 1
    m = np.zeros((v, v), dtype=np.uint8)
    for a, b, c in tris[rng.integers(0, len(tris), count)]:
        for x, y in ((a, b), (b, c), (a, c)):
            m[x, y] ^= 1
            m[y, x] ^= 1
    return m


def _random_graph(rng, v, p):
    """A symmetric zero-diagonal matrix with each edge present with chance p."""
    m = np.triu(rng.random((v, v)) < p, 1).astype(np.uint8)
    return m | m.T


# ---------------------------------------------------------------------------
# Cycles


@settings(max_examples=80, deadline=None)
@given(v=st.integers(3, 60), count=st.integers(0, 80), seed=st.integers(0, 2**32 - 1))
def test_sweep_matches_greedy(v, count, seed):
    m = _triangle_sum(np.random.default_rng(seed), v, count)
    (got, trace), (want, want_trace) = _traced(decompose_cycles, m), _traced(
        ref.decompose_cycles, m)
    assert got == want and trace == want_trace
    coeffs = decompose_cycles(m)
    assert coeffs.dtype == np.uint8
    assert eval_circuit(_cycles(v), coeffs) == m.reshape(-1).tolist()


@settings(max_examples=40, deadline=None)
@given(v=st.integers(3, 60), count=st.integers(0, 80), edge=st.integers(0, 2**32 - 1),
       seed=st.integers(0, 2**32 - 1))
def test_odd_degree_refused_as_greedy(v, count, edge, seed):
    m = _triangle_sum(np.random.default_rng(seed), v, count)
    a, b = divmod(edge % (v * v - v), v - 1)
    b += b >= a  # an ordered pair a != b
    m[a, b] ^= 1  # flips the parity of vertices a and b
    m[b, a] ^= 1
    got, want = _traced(decompose_cycles, m), _traced(ref.decompose_cycles, m)
    assert got == want
    assert got[0] == ("WitnessError", "graph has an odd-degree vertex; not in Cycles")


@pytest.mark.parametrize("word", [
    "100000000",  # diagonal bit
    "010000000",  # asymmetric
    "01110",  # not a square
    "",  # empty
    "0",  # one vertex, no edge
    "0000",  # two vertices, no edge
    "0110",  # two vertices, one edge: odd degrees
])
def test_bad_or_trivial_words_as_greedy(word):
    assert _traced(decompose_cycles, word) == _traced(ref.decompose_cycles, word)


@pytest.mark.parametrize("v", range(3, 13))
def test_every_triangle_and_its_trace(v):
    """Each single basis triangle comes back as its own coefficient, with the
    one-step trace; the diagonal sweep orders coefficients as the basis."""
    basis = graphs.triangle_basis(v)
    for i, (a, b, c) in enumerate(basis.triangles):
        m = np.zeros((v, v), dtype=np.uint8)
        for x, y in ((a, b), (b, c), (a, c)):
            m[x - 1, y - 1] = m[y - 1, x - 1] = 1
        trace = []
        coeffs = decompose_cycles(m, trace=trace)
        assert np.flatnonzero(coeffs).tolist() == [i]
        assert trace == [(c - a, 1)]


# ---------------------------------------------------------------------------
# uSTConn


@settings(max_examples=80, deadline=None)
@given(v=st.integers(2, 40), p=st.sampled_from([0.0, 0.03, 0.1, 0.3]),
       seed=st.integers(0, 2**32 - 1))
def test_ustconn_matches_set_witness(v, p, seed):
    """Connected members and disconnected non-members alike."""
    m = _random_graph(np.random.default_rng(seed), v, p)
    got = _outcome(lambda: witness_graph("ustconn", m))
    assert got == _outcome(lambda: ref.witness_ustconn(m))
    if member(USTConn(), m.reshape(-1)):
        proof = witness_graph("ustconn", m)
        assert proof.dtype == np.uint8
        assert eval_circuit(_ustconn(v), proof) == m.reshape(-1).tolist()
    else:
        assert got == ("WitnessError", "vertices 1 and n are not connected")


def test_ustconn_two_vertices_is_the_edge():
    """At v = 2 there is no triangle and one pair: the path is the (1, 2)
    edge itself, so cycles part and mask bit are both empty."""
    proof = witness_graph("ustconn", "0110")
    assert proof.tolist() == ref.witness_ustconn("0110").tolist() == [0]
    assert eval_circuit(synth_ustconn(2), proof) == [0, 1, 1, 0]


@pytest.mark.parametrize("v", [4, 9, 20])
def test_lexicographically_smallest_shortest_path(v):
    """With every vertex adjacent to both ends, the smallest middle wins."""
    m = np.zeros((v, v), dtype=np.uint8)
    m[0, 1:-1] = m[1:-1, 0] = m[-1, 1:-1] = m[1:-1, -1] = 1
    assert graphs._shortest_path(m, 0, v - 1) == [0, 1, v - 1]
    assert graphs._shortest_path(m, 0, v - 1) == ref.shortest_path(m, 0, v - 1)


@pytest.mark.parametrize("v", [20, 40])
def test_ustconn_benchmark_members_match_reference(v):
    """The benchmark's members, where the search from t stops at s early."""
    from perfbench.oracles import ustconn_members

    for word in ustconn_members(np.random.default_rng(v), v, 20):
        m = word.reshape(v, v)
        assert graphs._shortest_path(m, 0, v - 1) == ref.shortest_path(m, 0, v - 1)
        assert witness_graph("ustconn", word).tobytes() == ref.witness_ustconn(word).tobytes()


# ---------------------------------------------------------------------------
# regression guards


def _member(kind, rng, v):
    """A member of the kind's language on v vertices."""
    if kind == "cycles":
        return _triangle_sum(rng, v, v)
    m = _random_graph(rng, v, 0.2)
    if kind == "ustconn":
        m[np.arange(v - 1), np.arange(1, v)] = m[np.arange(1, v), np.arange(v - 1)] = 1
    else:
        m[:, -1] = 0  # no arc into vertex n
    return m


@pytest.mark.parametrize("v", [5, 20])
def test_witnesses_build_no_triangle_basis(v, monkeypatch):
    rng = np.random.default_rng(v)
    kinds = ["cycles"] + ["cycles", "ustconn"] * 25
    members = [_member(kind, rng, v) for kind in kinds]
    calls = []
    basis = graphs.triangle_basis
    monkeypatch.setattr(graphs, "triangle_basis", lambda n: calls.append(n) or basis(n))
    witness_graph(kinds[0], members[0])
    before = len(calls)
    for kind, m in zip(kinds[1:], members[1:]):
        witness_graph(kind, m)
    assert len(calls) == before


@pytest.mark.parametrize("kind", ["cycles", "ustconn", "unreach"])
def test_witness_leaves_the_callers_matrix(kind):
    m = _member(kind, np.random.default_rng(3), 12)
    before = m.copy()
    for G in (m, m.reshape(-1)):
        witness_graph(kind, G)
        assert np.array_equal(m, before)
