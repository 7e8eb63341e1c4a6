"""Counting synthesis: threshold and exact-count interval-label systems."""

import itertools

import numpy as np
import pytest

from rangesynth.circuit import alternations, depth, eval_batch, eval_circuit, size
from rangesynth.counting import synth_exact_count, synth_threshold, witness_count
from rangesynth.regular import WitnessError
from tests.conftest import exact_range, random_proofs
from tests.counting_reference import build as reference_build
from tests.structure import assert_same_circuit
from tests.witness_reference import build_tree, path_to_leaf


def _honest(kind, n, t, count, rng):
    """``count`` honest proofs of random members (threshold: random weight)."""
    proofs = []
    for _ in range(count):
        ones = t if kind == "exact" else int(rng.integers(t, n + 1))
        w = np.zeros(n, dtype=np.uint8)
        w[rng.choice(n, size=ones, replace=False)] = 1
        proofs.append(witness_count(kind, n, t, w))
    return proofs


def _synth(kind):
    return synth_threshold if kind == "threshold" else synth_exact_count


def _decode_counts(layout, proof):
    """(lo, hi) -> clamped label; leaves = word bits, root label = t frozen later."""
    out = {}
    for lo, hi, off, bits in layout.counts:
        v = 0
        for i in range(bits):
            v = (v << 1) | int(proof[off + i])
        out[(lo, hi)] = min(v, hi - lo)
    return out


@pytest.mark.parametrize("kind,n,t", [
    ("threshold", 4, 2), ("threshold", 5, 3), ("threshold", 5, 1),
    ("exact", 4, 2), ("exact", 5, 0), ("exact", 5, 5), ("exact", 5, 2),
])
def test_circuit_matches_reference_decoder(kind, n, t):
    synth = synth_threshold if kind == "threshold" else synth_exact_count
    c, layout = synth(n, t)
    rows = np.array(
        list(itertools.product((0, 1), repeat=c.num_inputs)), dtype=np.uint8
    )
    outs = eval_batch(c, rows)
    for proof, out in zip(rows, outs):
        decoded = _decode_counts(layout, proof)
        word, *_ = _reference_with_labels(kind, n, t, proof, decoded)
        assert list(out) == word


@pytest.mark.parametrize("kind", ["threshold", "exact"])
@pytest.mark.parametrize("n", [7, 16, 33])
def test_random_proofs_match_reference_decoder(kind, n):
    rng = np.random.default_rng(n)
    for t in sorted({1 if kind == "threshold" else 0, n // 2, n}):
        c, layout = _synth(kind)(n, t)
        rows = random_proofs(c.num_inputs, _honest(kind, n, t, 32, rng), seed=n * 100 + t)
        for proof, out in zip(rows, eval_batch(c, rows)):
            decoded = _decode_counts(layout, proof)
            word, *_ = _reference_with_labels(kind, n, t, proof, decoded)
            assert list(out) == word


def _reference_with_labels(kind, n, t, proof, decoded):
    a = [int(b) for b in proof[:n]]
    tree = build_tree(0, n)

    def label(node):
        key = (node.lo, node.hi)
        if key in decoded:
            return decoded[key]
        if node.is_leaf:
            return a[node.lo]
        assert node.parent is None
        return t

    def consistent(node):
        if node.is_leaf:
            return True
        lhs, rhs = label(node), label(node.left) + label(node.right)
        return lhs <= rhs if kind == "threshold" else lhs == rhs

    word = []
    for k in range(1, n + 1):
        path = path_to_leaf(tree, k)
        bad = next((x for x in path if not consistent(x)), None)
        if bad is None:
            word.append(a[k - 1])
        elif kind == "threshold":
            word.append(1)
        else:
            word.append(1 if (k - bad.lo) <= label(bad) else 0)
    return word, tree, label, consistent


class TestRanges:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_threshold_exhaustive(self, n):
        for t in range(1, n + 1):
            c, _ = synth_threshold(n, t)
            want = {
                bytes(w) for w in itertools.product((0, 1), repeat=n)
                if sum(w) >= t
            }
            assert exact_range(c) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_exact_exhaustive(self, n):
        for t in range(0, n + 1):
            c, _ = synth_exact_count(n, t)
            want = {
                bytes(w) for w in itertools.product((0, 1), repeat=n)
                if sum(w) == t
            }
            assert exact_range(c) == want

    def test_t_out_of_range(self):
        with pytest.raises(ValueError):
            synth_threshold(4, 0)
        with pytest.raises(ValueError):
            synth_threshold(4, 5)
        with pytest.raises(ValueError):
            synth_exact_count(4, -1)
        with pytest.raises(ValueError):
            synth_exact_count(4, 5)


class TestSpecExamples:
    def test_threshold_honest_1100(self):
        c, _ = synth_threshold(4, 2)
        proof = witness_count("threshold", 4, 2, [1, 1, 0, 0])
        assert eval_circuit(c, proof) == [1, 1, 0, 0]

    def test_threshold_inconsistent_root_floods_ones(self):
        c, layout = synth_threshold(4, 2)
        # a = 0000 and every label 0: root claims t=2 > 0+0 -> inconsistent
        proof = np.zeros(c.num_inputs, dtype=np.uint8)
        assert eval_circuit(c, proof) == [1, 1, 1, 1]

    def test_exact_honest_010(self):
        c, _ = synth_exact_count(3, 1)
        proof = witness_count("exact", 3, 1, [0, 1, 0])
        assert eval_circuit(c, proof) == [0, 1, 0]

    def test_exact_root_patch_n2(self):
        c, layout = synth_exact_count(2, 1)
        # a = 00, both children labeled 0 (n=2: leaves have no slots, so the
        # inconsistent node is the root) -> L = min(1, 2) = 1 -> output 10
        proof = np.zeros(c.num_inputs, dtype=np.uint8)
        assert eval_circuit(c, proof) == [1, 0]

    def test_exact_t0_all_zero(self):
        c, _ = synth_exact_count(4, 0)
        proof = witness_count("exact", 4, 0, [0, 0, 0, 0])
        assert eval_circuit(c, proof) == [0, 0, 0, 0]

    def test_witness_error_outside_slice(self):
        with pytest.raises(WitnessError):
            witness_count("threshold", 4, 2, [0, 0, 0, 1])


class TestSubwordRealization:
    """On a path-consistent node v the output subword over (v.lo, v.hi]
    carries >= min(l(v), |v|) ones (threshold) / exactly l(v) ones (exact)."""

    @pytest.mark.parametrize("kind,n,t", [("threshold", 5, 2), ("exact", 5, 2)])
    def test_property(self, kind, n, t):
        synth = synth_threshold if kind == "threshold" else synth_exact_count
        c, layout = synth(n, t)
        rows = np.array(
            list(itertools.product((0, 1), repeat=c.num_inputs)), dtype=np.uint8
        )
        outs = eval_batch(c, rows)
        for proof, out in zip(rows, outs):
            decoded = _decode_counts(layout, proof)
            _, tree, label, consistent = _reference_with_labels(
                kind, n, t, proof, decoded
            )
            stack, ancestors_ok = [(tree, True)], None
            while stack:
                node, above_ok = stack.pop()
                path_ok = above_ok and consistent(node)
                if path_ok and not node.is_leaf:
                    ones = int(sum(out[node.lo:node.hi]))
                    want = min(label(node), node.hi - node.lo)
                    if kind == "threshold":
                        assert ones >= want
                    else:
                        assert ones == want
                if not node.is_leaf:
                    stack.append((node.left, path_ok))
                    stack.append((node.right, path_ok))


class TestAgainstPerNodeReference:
    """The stamped build against the per-node build of
    ``tests/counting_reference.py``, whose exact count patches through one
    carry-lookahead comparison per position."""

    @pytest.mark.parametrize("kind", ["threshold", "exact"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_proof(self, kind, n):
        for t in range(kind == "threshold", n + 1):
            c, layout = _synth(kind)(n, t)
            ref, ref_layout = reference_build(kind, n, t)
            assert layout == ref_layout
            rows = np.array(list(itertools.product((0, 1), repeat=c.num_inputs)),
                            dtype=np.uint8)
            assert np.array_equal(eval_batch(c, rows), eval_batch(ref, rows))

    @pytest.mark.parametrize("kind, n", [("exact", 5), ("exact", 8), ("exact", 13),
                                         ("exact", 31), ("exact", 64), ("threshold", 13),
                                         ("threshold", 64)])
    def test_random_and_mutated_proofs_every_t(self, kind, n):
        rng = np.random.default_rng(n)
        for t in range(kind == "threshold", n + 1):
            c, _ = _synth(kind)(n, t)
            ref, _ = reference_build(kind, n, t)
            rows = random_proofs(c.num_inputs, _honest(kind, n, t, 8, rng), 64, seed=t)
            assert np.array_equal(eval_batch(c, rows), eval_batch(ref, rows)), t

    @pytest.mark.parametrize("kind, t", [("exact", 0), ("exact", 1), ("exact", 511),
                                         ("exact", 512), ("exact", 1024),
                                         ("threshold", 512)])
    def test_random_and_mutated_proofs_n1024(self, kind, t):
        rng = np.random.default_rng(t)
        c, _ = _synth(kind)(1024, t)
        ref, _ = reference_build(kind, 1024, t)
        rows = random_proofs(c.num_inputs, _honest(kind, 1024, t, 16, rng), 512, seed=t)
        assert np.array_equal(eval_batch(c, rows), eval_batch(ref, rows))

    @pytest.mark.parametrize("n", [4, 5, 8, 13, 16, 33, 64, 100, 128, 256, 512, 1024])
    def test_structure(self, n):
        """No deeper and no more alternations than the reference, exact count
        smaller from n = 8 on, and the same circuit as the same construction
        emitted gate by gate."""
        for kind in ("threshold", "exact"):
            c, _ = _synth(kind)(n, n // 2)
            ref, _ = reference_build(kind, n, n // 2)
            assert depth(c) <= depth(ref) and alternations(c) <= alternations(ref)
            if kind == "exact" and n >= 8:
                assert size(c) < size(ref)
            per_gate, _ = reference_build(kind, n, n // 2, patch="thermometer")
            assert_same_circuit(c, per_gate)
