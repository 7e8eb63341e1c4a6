"""Graph proof systems: triangle basis, Cycles, uSTConn, UnReach."""

import itertools

import numpy as np
import pytest

from rangesynth.circuit import CONST, CircuitBuilder, cone_sizes, eval_circuit, serialize
from rangesynth.graphs import (
    decompose_cycles,
    synth_cycles,
    synth_unreach,
    synth_ustconn,
    triangle_basis,
    witness_graph,
)
from rangesynth.languages import Cycles, EncodingError, UnReach, USTConn, member
from rangesynth.regular import WitnessError
from tests import graph_reference
from tests.conftest import directed_words, exact_range, undirected_words

SYNTH = {"cycles": synth_cycles, "ustconn": synth_ustconn, "unreach": synth_unreach}


class TestTriangleBasis:
    def test_n3(self):
        assert triangle_basis(3).triangles == [(1, 2, 3)]

    def test_n4(self):
        # only the left-edge-shorter spacing of the odd pattern is emitted,
        # keeping the <= 6 incidence bound at large n
        assert triangle_basis(4).triangles == [(1, 2, 3), (1, 2, 4), (2, 3, 4)]

    def test_lexicographic_order(self):
        tris = triangle_basis(30).triangles
        assert tris == sorted(tris)

    @pytest.mark.parametrize("n", [3, 10, 50, 200])
    def test_bounds(self, n):
        tb = triangle_basis(n)
        assert all(len(v) <= 6 for v in tb.edge_incidence.values())
        assert len(tb.triangles) <= 1.5 * n * n

    def test_pattern_lengths(self):
        for u, v, w in triangle_basis(25).triangles:
            a, b, c = sorted((v - u, w - v, w - u))
            assert (a == b and c == 2 * a) or (b == a + 1 and c == 2 * a + 1)

    def test_small_n_empty(self):
        assert triangle_basis(2).triangles == []


class TestCycles:
    def test_single_coefficient_gives_triangle(self):
        tb = triangle_basis(4)
        c = synth_cycles(4)
        x = np.zeros(len(tb.triangles), dtype=np.uint8)
        x[tb.triangles.index((1, 2, 3))] = 1
        m = np.array(eval_circuit(c, x)).reshape(4, 4)
        want = np.zeros((4, 4), dtype=int)
        for i, j in ((0, 1), (1, 2), (0, 2)):
            want[i, j] = want[j, i] = 1
        assert np.array_equal(m, want)

    def test_all_zero_gives_empty_graph(self):
        c = synth_cycles(5)
        assert not any(eval_circuit(c, np.zeros(c.num_inputs, dtype=np.uint8)))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_range_is_even_degree_graphs(self, n):
        c = synth_cycles(n)
        want = {w for w in undirected_words(n) if member(Cycles(), list(w))}
        assert exact_range(c) == want

    def test_cone_bound(self):
        assert max(cone_sizes(synth_cycles(20))) <= 6


class TestDecompose:
    def test_triangle_base_case(self):
        m = np.zeros((3, 3), dtype=np.uint8)
        for i, j in ((0, 1), (1, 2), (0, 2)):
            m[i, j] = m[j, i] = 1
        trace = []
        coeffs = decompose_cycles(m.reshape(-1), trace=trace)
        assert list(coeffs) == [1]
        assert trace == [(2, 1)]

    def test_four_cycle_two_triangles(self):
        m = np.zeros((4, 4), dtype=np.uint8)
        for i, j in ((0, 1), (1, 2), (2, 3), (0, 3)):
            m[i, j] = m[j, i] = 1
        coeffs = decompose_cycles(m.reshape(-1))
        assert int(coeffs.sum()) == 2
        c = synth_cycles(4)
        assert eval_circuit(c, coeffs) == list(m.reshape(-1))

    def test_odd_degree_rejected(self):
        m = np.zeros((4, 4), dtype=np.uint8)
        m[0, 1] = m[1, 0] = 1
        with pytest.raises(WitnessError):
            decompose_cycles(m.reshape(-1))

    def test_gf2_closure(self):
        rng = np.random.default_rng(5)
        c = synth_cycles(8)
        for _ in range(30):
            x1 = rng.integers(0, 2, c.num_inputs, dtype=np.uint8)
            x2 = rng.integers(0, 2, c.num_inputs, dtype=np.uint8)
            g1 = np.array(eval_circuit(c, x1), dtype=np.uint8)
            g2 = np.array(eval_circuit(c, x2), dtype=np.uint8)
            assert member(Cycles(), g1 ^ g2)


class TestUSTConn:
    def test_all_zero_proof_gives_st_edge(self):
        c = synth_ustconn(4)
        m = np.array(
            eval_circuit(c, np.zeros(c.num_inputs, dtype=np.uint8))
        ).reshape(4, 4)
        want = np.zeros((4, 4), dtype=int)
        want[0, 3] = want[3, 0] = 1
        assert np.array_equal(m, want)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_range(self, n):
        c = synth_ustconn(n)
        want = {w for w in undirected_words(n) if member(USTConn(), list(w))}
        assert exact_range(c) == want

    def test_mask_all_ones_connected(self):
        c = synth_ustconn(5)
        x = np.ones(c.num_inputs, dtype=np.uint8)
        assert member(USTConn(), eval_circuit(c, x))

    def test_hamiltonian_path_witness(self):
        n = 5
        m = np.zeros((n, n), dtype=np.uint8)
        for i in range(n - 1):
            m[i, i + 1] = m[i + 1, i] = 1
        proof = witness_graph("ustconn", m.reshape(-1))
        c = synth_ustconn(n)
        assert eval_circuit(c, proof) == list(m.reshape(-1))
        # the path needs no mask bits: it is cycles-part (+) the (1,n) edge
        n_pairs = n * (n - 1) // 2
        assert not proof[-n_pairs:].any()

    def test_cone_bound(self):
        assert max(cone_sizes(synth_ustconn(20))) <= 8


class TestUnReach:
    def test_empty_graph(self):
        c = synth_unreach(4)
        x = np.zeros(c.num_inputs, dtype=np.uint8)
        assert eval_circuit(c, x) == [0] * 16

    def test_cut_keeps_edge(self):
        # A = {(1,2)}, X_2 = 1 -> B keeps (1,2); vertex 3 stays unreachable
        c = synth_unreach(3)
        x = np.zeros(c.num_inputs, dtype=np.uint8)
        x[1] = 1  # A[1,2]
        x[9] = 1  # X_2
        m = np.array(eval_circuit(c, x)).reshape(3, 3)
        assert m[0, 1] == 1 and member(UnReach(), m.reshape(-1))

    def test_range_n3(self):
        c = synth_unreach(3)
        want = {w for w in directed_words(3) if member(UnReach(), list(w))}
        assert exact_range(c) == want

    def test_witness_no_edges(self):
        proof = witness_graph("unreach", [0] * 16)
        c = synth_unreach(4)
        assert eval_circuit(c, proof) == [0] * 16

    def test_cone_bound(self):
        assert max(cone_sizes(synth_unreach(20))) <= 3


@pytest.mark.parametrize("kind,n", [("cycles", 4), ("ustconn", 4), ("unreach", 3)])
def test_witness_completeness(kind, n):
    if kind == "cycles":
        c, spec, words = synth_cycles(n), Cycles(), undirected_words(n)
    elif kind == "ustconn":
        c, spec, words = synth_ustconn(n), USTConn(), undirected_words(n)
    else:
        c, spec, words = synth_unreach(n), UnReach(), directed_words(n)
    for w in words:
        if not member(spec, list(w)):
            continue
        assert bytes(eval_circuit(c, witness_graph(kind, list(w)))) == w


def test_non_member_witness_rejected():
    m = np.zeros((4, 4), dtype=np.uint8)
    m[0, 1] = m[1, 0] = 1
    with pytest.raises(WitnessError):
        witness_graph("ustconn", [0] * 16)  # 1 and 4 disconnected
    with pytest.raises(WitnessError):
        witness_graph("cycles", m.reshape(-1))


@pytest.mark.parametrize("kind", ["cycles", "ustconn", "unreach"])
def test_empty_graph_word_rejected(kind):
    with pytest.raises(EncodingError):
        witness_graph(kind, "")


@pytest.mark.parametrize("kind,word", [
    ("cycles", "011101110"), ("ustconn", "001000100"), ("unreach", "010000000"),
])
def test_matrix_and_word_give_the_same_proof(kind, word):
    m = np.array(list(word), dtype=np.uint8).reshape(3, 3)
    assert np.array_equal(witness_graph(kind, m), witness_graph(kind, word))


def test_malformed_undirected_encoding_rejected():
    with pytest.raises(EncodingError):
        witness_graph("ustconn", "010000000")  # asymmetric
    with pytest.raises(EncodingError):
        decompose_cycles("100000000")  # diagonal bit
    with pytest.raises(EncodingError):
        witness_graph("cycles", "01110")  # not a square


def test_unreach_reachable_rejected():
    with pytest.raises(WitnessError):
        witness_graph("unreach", "010001000")  # 1 -> 2 -> 3


@pytest.mark.parametrize("kind,n", [
    ("cycles", 1), ("cycles", 2), ("ustconn", 1), ("unreach", 1),
])
def test_size_no_system_is_built_for_rejected(kind, n):
    """Synthesis and witnesses refuse the same sizes, with one message."""
    synth = SYNTH[kind]
    with pytest.raises(EncodingError, match=f"{kind} needs n >= "):
        synth(n)
    with pytest.raises(EncodingError, match=f"{kind} needs n >= "):
        witness_graph(kind, [0] * (n * n))


@pytest.mark.parametrize("kind,word", [("ustconn", "0110"), ("unreach", "0000")])
def test_smallest_size_witnesses(kind, word):
    c = synth_ustconn(2) if kind == "ustconn" else synth_unreach(2)
    assert bytes(eval_circuit(c, witness_graph(kind, word))) == bytes(
        int(ch) for ch in word)


def test_unknown_kind_rejected():
    with pytest.raises(EncodingError, match="unknown graph kind"):
        witness_graph("paths", "0110")


# ---------------------------------------------------------------------------
# block emission: the stamped synthesizers against the per-gate ones


@pytest.mark.parametrize("kind,n", [(kind, n) for kind in SYNTH for n in [
    *range(3 if kind == "cycles" else 2, 13), 20, 40]])
def test_serialize_matches_per_gate_reference(kind, n):
    want = getattr(graph_reference, f"synth_{kind}")(n)
    assert serialize(SYNTH[kind](n)) == serialize(want)


@pytest.mark.parametrize("kind", list(SYNTH))
def test_no_per_gate_emission(kind, monkeypatch):
    """Each family is stamped in blocks: no scalar gate constructor runs
    (``const()`` appends its shared CONST through ``gate``, which is not
    counted).  One build first warms the template caches: a template is
    recorded once per process, gate by gate on a scratch builder, and none
    of those gates reaches the circuit's builder."""
    SYNTH[kind](20)
    calls = []
    for name in ("gate", "input", "not_", "and_", "or_", "xor"):
        scalar = getattr(CircuitBuilder, name)

        def counted(self, *args, _name=name, _scalar=scalar):
            if not (_name == "gate" and args[0] == CONST):
                calls.append(_name)
            return _scalar(self, *args)

        monkeypatch.setattr(CircuitBuilder, name, counted)
    synth_ustconn(5)  # the counters do count
    assert "not_" not in calls and "gate" not in calls
    graph_reference.synth_ustconn(5)
    assert {"gate", "input", "not_", "and_", "or_", "xor"} <= set(calls)
    calls.clear()
    SYNTH[kind](20)
    assert calls == []
