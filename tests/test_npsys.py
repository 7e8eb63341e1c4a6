"""SAC/co-SAC proof systems built from NP verifier circuits."""

import itertools
import re

import numpy as np
import pytest

from rangesynth.circuit import (
    AND, CONST, INPUT, NOT, OR,
    CircuitBuilder, ParseError, StructureError, eval_circuit,
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
from tests.circuit_reference import parse_verifier_reference
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


GOOD_VERIFIER = ["circuit 2 3 1", "split 1 1", "0 INPUT 0", "1 INPUT 1", "2 AND 0 1",
                 "outputs 2"]


def _verifier_text(lines, split_at=1, end="\n"):
    """GOOD_VERIFIER's lines with the split line moved to index ``split_at``."""
    lines = [line for line in lines if not line.startswith("split")]
    lines.insert(split_at, "split 1 1")
    return end.join(lines) + end


def _outcome(fn, text):
    try:
        return fn(text)
    except (ParseError, StructureError) as exc:
        return type(exc), str(exc)


class TestVerifierText:
    """Errors name their line in the verifier text: the split line is line
    2 of a serialized verifier, so gate i is on line i + 3."""

    @pytest.mark.parametrize("gate, fault, error", [
        ("2 AND 0 5", "gate 2: operands (0,5) not earlier gates", StructureError),
        ("2 AND 0", "AND takes 2 operand(s)", ParseError),
        ("2 XOR 0 1", "expected '<id> <kind> <operands>'", ParseError),
        ("7 AND 0 1", "expected gate id 2, got 7", ParseError),
    ])
    def test_bad_gate_line(self, gate, fault, error):
        text = _verifier_text(GOOD_VERIFIER[:4] + [gate, "outputs 2"])
        with pytest.raises(error, match=f"^line 5: {re.escape(fault)}"):
            parse_verifier(text)

    @pytest.mark.parametrize("outputs, fault, error", [
        ("outputs x", "non-integer output id", ParseError),
        ("outputs 2 1", "header promised 1 outputs, got 2", ParseError),
        ("outputs 9", "output id 9 does not exist", StructureError),
        ("output 2", "expected final 'outputs' line", ParseError),
    ])
    def test_bad_outputs_line(self, outputs, fault, error):
        text = _verifier_text(GOOD_VERIFIER[:5] + [outputs])
        with pytest.raises(error, match=f"^line 6: {re.escape(fault)}"):
            parse_verifier(text)

    def test_header_and_split_lines(self):
        with pytest.raises(ParseError, match="^line 1: non-integer header"):
            parse_verifier(_verifier_text(["circuit 2 x 1"] + GOOD_VERIFIER[2:]))
        with pytest.raises(ParseError, match="^line 1: non-integer header"):
            parse_verifier(_verifier_text(["circuit 2 x 1"] + GOOD_VERIFIER[2:], 4))
        with pytest.raises(ParseError, match="^line 2: non-integer header"):
            parse_verifier(_verifier_text(["circuit 2 x 1"] + GOOD_VERIFIER[2:], 0))
        for bad in ("split 1", "split 1 x", "split 1 1 1"):
            text = "\n".join(GOOD_VERIFIER).replace("split 1 1", bad)
            with pytest.raises(ParseError, match="^line 2: split line needs two"):
                parse_verifier(text)
        with pytest.raises(ParseError, match="missing 'split"):
            parse_verifier("\n".join(GOOD_VERIFIER).replace("split", "splits"))

    def test_round_trip_numbers_every_gate(self):
        v = contains11_verifier()
        text = serialize_verifier(v)
        lines = text.splitlines()
        assert lines[1] == "split 3 2" and text.endswith("\n")
        assert parse_verifier(text).circuit == v.circuit
        for gid in range(v.circuit.num_gates):
            assert lines[gid + 2].split()[0] == str(gid)  # line gid + 3
            bad = lines[: gid + 2] + [f"{gid} XOR 0 1"] + lines[gid + 3:]
            with pytest.raises(ParseError, match=f"^line {gid + 3}: "):
                parse_verifier("\n".join(bad))

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "\x0c"])
    @pytest.mark.parametrize("split_at", range(7))
    def test_same_texts_as_the_line_rejoining_reader(self, end, split_at):
        """Every text the old reader took still parses to the same verifier,
        and every error is the old one, its line counted in the given text."""
        variants = [GOOD_VERIFIER]
        for i, line in enumerate(GOOD_VERIFIER):
            if not line.startswith("split"):
                variants += [GOOD_VERIFIER[:i] + [bad] + GOOD_VERIFIER[i + 1:]
                             for bad in ("", "1 INPUT", "2 AND 0 9", "outputs 7", "x")]
        for lines in variants:
            text = _verifier_text(lines, split_at, end)
            got, want = (_outcome(parse_verifier, text),
                         _outcome(parse_verifier_reference, text))
            if isinstance(want, tuple) and isinstance(want[0], type):
                kind, message = want
                line = re.match(r"line (\d+): ", message)
                if line and int(line[1]) > split_at:  # past the split line
                    message = message.replace(line[0], f"line {int(line[1]) + 1}: ", 1)
                assert got == (kind, message)
            else:
                assert (got.circuit, got.num_x, got.num_y) == want


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
