"""SAC/co-SAC proof systems built from NP verifier circuits."""

import itertools

import numpy as np
import pytest

from rangesynth.circuit import (
    AND, CONST, INPUT, NOT, OR,
    CircuitBuilder, eval_circuit,
)
from rangesynth.npsys import (
    VerifierCircuit,
    _certificate,
    _proof_inputs,
    pad_language,
    pad_verifier,
    parse_verifier,
    serialize_verifier,
    synth_co_sac,
    synth_sac,
    verifier_member,
    witness_np,
)
from tests.conftest import contains11_verifier, exact_range, tiny_and_verifier


def _members(v):
    return {
        bytes(w) for w in itertools.product((0, 1), repeat=v.num_x)
        if verifier_member(v, list(w))
    }


def _negations_only_on_literals(c):
    for g in range(c.num_gates):
        if c.kinds[g] == NOT and c.kinds[c.arg0[g]] not in (INPUT, CONST):
            return False
    return True


class TestVerifier:
    def test_members_contains11(self):
        v = contains11_verifier()
        assert _members(v) == {bytes([0, 1, 1]), bytes([1, 1, 0]), bytes([1, 1, 1])}

    def test_serialize_roundtrip(self):
        v = contains11_verifier()
        v2 = parse_verifier(serialize_verifier(v))
        assert v2.num_x == v.num_x and v2.num_y == v.num_y
        assert serialize_verifier(v2) == serialize_verifier(v)
        assert "split 3 2" in serialize_verifier(v)


class TestCoSac:
    def test_trivial_accept_covers_everything(self):
        b = CircuitBuilder(2)
        b.set_outputs([b.const(1)])
        v = VerifierCircuit(b.build(), num_x=1, num_y=1)
        c = synth_co_sac(v)
        assert exact_range(c) == {bytes([0]), bytes([1])}

    def test_range_is_slice_plus_zero(self):
        v = contains11_verifier()
        c = synth_co_sac(v)
        assert exact_range(c) == _members(v) | {bytes(3)}

    def test_corrupted_z_flattens_to_zero(self):
        v = contains11_verifier()
        c = synth_co_sac(v)
        proof = np.array(witness_np(v, "cosac", [1, 1, 0]), dtype=np.uint8)
        assert eval_circuit(c, proof) == [1, 1, 0]
        proof[-1] ^= 1  # claimed value of the output gate
        assert eval_circuit(c, proof) == [0, 0, 0]

    def test_negations_only_on_literals(self):
        assert _negations_only_on_literals(synth_co_sac(contains11_verifier()))


class TestSac:
    def test_trivial_accept(self):
        b = CircuitBuilder(2)
        b.set_outputs([b.const(1)])
        v = VerifierCircuit(b.build(), num_x=1, num_y=1)
        assert exact_range(synth_sac(v)) == {bytes([0]), bytes([1])}

    def test_range_is_slice_plus_one(self):
        v = contains11_verifier()
        c = synth_sac(v)
        assert exact_range(c) == _members(v) | {bytes([1, 1, 1])}

    def test_corrupted_z_flattens_to_one(self):
        v = contains11_verifier()
        c = synth_sac(v)
        proof = np.array(witness_np(v, "sac", [0, 1, 1]), dtype=np.uint8)
        assert eval_circuit(c, proof) == [0, 1, 1]
        proof[-1] ^= 1
        assert eval_circuit(c, proof) == [1, 1, 1]

    def test_negations_only_on_literals(self):
        assert _negations_only_on_literals(synth_sac(contains11_verifier()))


class TestPadded:
    def test_padded_ranges(self):
        v = tiny_and_verifier()
        sac_c, cosac_c = pad_language(v, 4)
        want = {bytes([1, 1, 1, 0]), bytes(4), bytes([1, 1, 1, 1])}
        assert exact_range(sac_c) == want
        assert exact_range(cosac_c) == want

    def test_honest_core_framed(self):
        v = tiny_and_verifier()
        vv = pad_verifier(v, 4)
        sac_c, cosac_c = pad_language(v, 4)
        for c, variant in ((sac_c, "sac"), (cosac_c, "cosac")):
            proof = witness_np(vv, variant, [1, 1, 1, 0])
            assert eval_circuit(c, proof) == [1, 1, 1, 0]

    def test_all_corrupt_collapses(self):
        v = tiny_and_verifier()
        sac_c, cosac_c = pad_language(v, 4)
        ones = np.ones(cosac_c.num_inputs, dtype=np.uint8)
        out = eval_circuit(cosac_c, ones)
        assert out in ([0, 0, 0, 0], [1, 1, 1, 1])  # stays inside the slice
        # fabricated frame with corrupt z: co-SAC collapses to 0^n
        proof = np.zeros(cosac_c.num_inputs, dtype=np.uint8)
        proof[0] = 1  # x'_1 framed but nothing consistent
        assert eval_circuit(cosac_c, proof) == [0, 0, 0, 0]

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            pad_verifier(tiny_and_verifier(), 3)

    def test_negations_only_on_literals(self):
        sac_c, cosac_c = pad_language(tiny_and_verifier(), 4)
        assert _negations_only_on_literals(sac_c)
        assert _negations_only_on_literals(cosac_c)


class TestWitness:
    def test_absorbing_words(self):
        v = contains11_verifier()
        cw = witness_np(v, "cosac", [0, 0, 0])
        assert eval_circuit(synth_co_sac(v), cw) == [0, 0, 0]
        sw = witness_np(v, "sac", [1, 1, 1])
        assert eval_circuit(synth_sac(v), sw) == [1, 1, 1]

    def test_non_member_rejected(self):
        from rangesynth.regular import WitnessError

        v = contains11_verifier()
        with pytest.raises(WitnessError):
            witness_np(v, "cosac", [1, 0, 1])

    def test_completeness(self):
        v = contains11_verifier()
        cosac, sac = synth_co_sac(v), synth_sac(v)
        for w in _members(v):
            assert bytes(eval_circuit(cosac, witness_np(v, "cosac", list(w)))) == w
            assert bytes(eval_circuit(sac, witness_np(v, "sac", list(w)))) == w


def test_certificate_is_the_first_accepting_y():
    v = contains11_verifier()
    ys = [np.array(y, dtype=np.uint8) for y in itertools.product((0, 1), repeat=2)]
    ys.sort(key=lambda y: int(y[0]) + 2 * int(y[1]))  # all_inputs order
    for x in itertools.product((0, 1), repeat=3):
        x = np.array(x, dtype=np.uint8)
        accepting = [y for y in ys
                     if eval_circuit(v.circuit, np.concatenate([x, y]))[0]]
        got = _certificate(v, x)
        if accepting:
            assert np.array_equal(got, accepting[0])
        else:
            assert got is None
        assert verifier_member(v, x) == bool(accepting)
        if accepting:
            assert np.array_equal(witness_np(v, "cosac", x)[3:5], accepting[0])


def test_proof_inputs_count_logic_gates():
    v = contains11_verifier()
    logic = sum(1 for k in v.circuit.kinds if k in (NOT, AND, OR))
    assert _proof_inputs(v) == v.circuit.num_inputs + logic
    assert synth_co_sac(v).num_inputs == _proof_inputs(v)
