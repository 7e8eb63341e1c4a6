"""Verification harness: soundness/completeness sweeps and locality audits."""

import numpy as np
import pytest

from rangesynth import circuit, verify
from rangesynth.circuit import (
    CircuitBuilder, InputArityError, circuit_range, eval_batch, eval_circuit, parse,
    serialize,
)
from rangesynth.counting import synth_exact_count, synth_threshold, witness_count
from rangesynth.graphs import synth_cycles, synth_unreach, witness_graph
from rangesynth.languages import (
    BudgetError, Cycles, ExactCount, Regular, Threshold, enumerate_slice, member_batch,
)
from rangesynth.regular import synth_regular, witness_regular
from rangesynth.verify import (
    Report,
    _MAX_RECORDED,
    _record,
    check_completeness,
    check_soundness,
    locality_audit,
    render_report,
)


def _output_to_input(c, k):
    """``c`` with output k rewired straight to its first proof bit."""
    lines = serialize(c).strip("\n").split("\n")
    outs = lines[-1].split()[1:]
    outs[k] = "0"  # gate 0 is an INPUT in the serialized order
    lines[-1] = "outputs " + " ".join(outs)
    return parse("\n".join(lines) + "\n")


def _broken_cycles(n):
    """Cycles circuit with one XOR dropped: emits odd-degree graphs."""
    return _output_to_input(synth_cycles(n), 1)  # the first off-diagonal output


def _rows_of(P, take):
    """The first ``take`` proofs of bit-sliced words P, one row at a time:
    bit i of proof r is bit r % 64 of word [i, r // 64]."""
    rows = np.empty((take, len(P)), dtype=np.uint8)
    for r in range(take):
        rows[r] = (P[:, r // 64] >> np.uint64(r % 64)) & np.uint64(1)
    return rows


def _sampled_soundness_reference(c, spec, seed, trials, base_proofs):
    """check_soundness in sampled mode with a per-row mutation loop, the
    uniform chunks unpacked row by row from the documented packed draw and
    every chunk evaluated through eval_batch.

    Returns the report and the proof batches in evaluation order.
    """
    m = c.num_inputs
    rng = np.random.default_rng(seed)
    report = Report("soundness", "sampled", trials)
    base = np.asarray(base_proofs, dtype=np.uint8)
    batches = []
    done = 0
    chunk = 1 << 14
    while done < trials:
        take = min(chunk, trials - done)
        if (done // chunk) % 2 == 1:
            proofs = base[rng.integers(0, len(base), take)].copy()
            flips = rng.integers(1, 4, take)
            for i in range(take):
                idx = rng.integers(0, m, int(flips[i]))
                proofs[i, idx] ^= 1
        else:
            words = -(-take // 64)
            raw = np.frombuffer(rng.bytes(8 * m * words), dtype="<u8")
            proofs = _rows_of(raw.reshape(m, words), take)
        outs = eval_batch(c, proofs)
        ok = member_batch(spec, outs)
        if not ok.all():
            _record(report, proofs, outs, ok, "output not in language")
        batches.append(proofs)
        done += take
    return report, batches


def _witness_completeness_reference(c, spec, members, witness_fn):
    """check_completeness in witness mode with one eval_batch call per member."""
    members = np.asarray(members, dtype=np.uint8)
    report = Report("completeness", "witness", len(members))
    for row in members:
        word = verify._bits_str(row)
        try:
            proof = np.asarray(witness_fn(row), dtype=np.uint8)
        except Exception as exc:
            verify._note(report, "<none>", word, f"witness_fn: {exc}")
            continue
        out = eval_batch(c, proof[None, :])[0]
        if not np.array_equal(out, row):
            verify._note(report, verify._bits_str(proof), verify._bits_str(out),
                         f"wanted {word}")
    return report


def _exhaustive_completeness_reference(c, members):
    """check_completeness in exhaustive mode on '0'/'1' strings: the range
    and the members formatted, compared as string sets, and every violation
    formatted before it is stored or counted."""
    have = {verify._bits_str(word) for word in circuit_range(c)}
    want = {verify._bits_str(row) for row in members}
    report = Report("completeness", "exhaustive", 1 << c.num_inputs)
    for word in sorted(want - have):
        verify._note(report, "<none>", word, "member not in range")
    for word in sorted(have - want):
        verify._note(report, "<unknown>", word, "range word not a member")
    return report


def _flaky_count_witness(n, t):
    """Honest threshold proofs, except every third member raises and every
    third proves the reversed word instead."""
    seen = []

    def witness(w):
        seen.append(w)
        k = len(seen) % 3
        if k == 1:
            raise RuntimeError(f"no proof for member {len(seen)}")
        word = w[::-1] if k == 2 else w
        return witness_count("threshold", n, t, word)

    return witness


class TestSoundness:
    def test_cycles_exhaustive_pass(self):
        c = synth_cycles(5)
        r = check_soundness(c, Cycles())
        assert r.passed and r.mode == "exhaustive"
        assert r.machine_line() == f"PASS soundness {1 << c.num_inputs} 0"

    def test_broken_circuit_reports_counterexample(self):
        r = check_soundness(_broken_cycles(5), Cycles())
        assert not r.passed
        proof, out, reason = r.violations[0]
        assert "not in language" in reason

    def test_sampled_deterministic(self, parity):
        c, _ = synth_regular(parity, 16)
        base = [witness_regular(parity, [0] * 16)]
        r1 = check_soundness(c, Regular(parity), budget=1 << 10, seed=42,
                             trials=2000, base_proofs=base)
        r2 = check_soundness(c, Regular(parity), budget=1 << 10, seed=42,
                             trials=2000, base_proofs=base)
        assert r1.passed and r1.mode == "sampled"
        assert r1.machine_line() == r2.machine_line()

    @pytest.mark.parametrize("trials", [0, -5])
    def test_sampled_needs_a_trial(self, trials):
        c, _ = synth_threshold(4, 2)
        with pytest.raises(ValueError, match="trials"):
            check_soundness(c, Threshold(2), budget=0, trials=trials)
        # exhaustive mode counts its own trials
        assert check_soundness(c, Threshold(2), trials=trials).passed

    def test_broken_circuit_storage_is_bounded(self):
        # every output is 00, which never meets the threshold: all 200k
        # sampled proofs fail, but only the first few are stored
        b = CircuitBuilder(3)
        b.set_outputs([b.and_(b.input(0), b.const(0))] * 2)
        r = check_soundness(b.build(), Threshold(1), budget=0, trials=200_000)
        assert len(r.violations) <= 10
        assert r.violation_count == 200_000
        assert r.machine_line() == "FAIL soundness 200000 200000"
        assert "violations: 200000" in r.text()

    def test_record_counts_across_chunks(self):
        r = Report("soundness", "sampled", 30)
        proofs = np.zeros((20, 2), dtype=np.uint8)
        ok = np.ones(20, dtype=bool)
        ok[:5] = False
        _record(r, proofs, proofs, ok, "first chunk")
        ok[:] = False
        _record(r, proofs, proofs, ok, "second chunk")
        assert len(r.violations) == _MAX_RECORDED
        assert r.violation_count == 25 and not r.passed

    @pytest.mark.parametrize("case", ["broken_cycles", "threshold", "parity"])
    def test_mutations_match_per_row_reference(self, case, parity, monkeypatch):
        if case == "broken_cycles":
            c, spec = _broken_cycles(5), Cycles()
            base = [witness_graph("cycles", [0] * 25)]
        elif case == "threshold":
            c, spec = synth_threshold(16, 8)[0], Threshold(8)
            base = [witness_count("threshold", 16, 8, [1] * 8 + [0] * 8),
                    witness_count("threshold", 16, 8, [0, 1] * 8)]
        else:
            c, spec = synth_regular(parity, 64)[0], Regular(parity)
            base = [witness_regular(parity, [0] * 64),
                    witness_regular(parity, [1] * 64)]
        trials = (1 << 14) + 3000  # one uniform chunk, then a mutated one
        want, want_batches = _sampled_soundness_reference(c, spec, 11, trials, base)
        batches = []
        eval_packed = verify._eval_packed

        def recording_eval_packed(circuit, P):
            batches.append(P.copy())
            return eval_packed(circuit, P)

        monkeypatch.setattr(verify, "_eval_packed", recording_eval_packed)
        got = check_soundness(c, spec, budget=0, seed=11, trials=trials,
                              base_proofs=base)
        assert len(batches) == len(want_batches) == 2
        for P, b in zip(batches, want_batches):
            assert P.shape == (c.num_inputs, -(-len(b) // 64))
            assert np.array_equal(_rows_of(P, len(b)), b)
        assert got.machine_line() == want.machine_line()
        assert got.violations == want.violations
        assert render_report(got) == render_report(want)
        if case == "broken_cycles":
            assert not got.passed

    @pytest.mark.parametrize("budget", [0, 1 << 20])
    @pytest.mark.parametrize("trials", [100, (1 << 14) + 3000])
    def test_stored_proofs_evaluate_to_stored_outputs(self, budget, trials):
        # checks the bit order of the packed draw, of the exhaustive
        # enumeration and of the unpacking of stored rows
        c = _broken_cycles(5)
        base = [witness_graph("cycles", [0] * 25)]
        r = check_soundness(c, Cycles(), budget=budget, seed=3, trials=trials,
                            base_proofs=base)
        assert r.mode == ("sampled" if budget == 0 else "exhaustive")
        assert len(r.violations) == _MAX_RECORDED and r.dropped > 0
        for proof, out, _ in r.violations:
            assert "".join(map(str, eval_circuit(c, proof))) == out
            assert not member_batch(Cycles(), np.array([list(map(int, out))],
                                                       dtype=np.uint8))[0]

    @pytest.mark.parametrize("trials", [1, 100, (1 << 14) + 3000])
    def test_same_seed_same_report(self, trials):
        c = _broken_cycles(5)
        base = [witness_graph("cycles", [0] * 25)]
        a, b = (render_report(check_soundness(c, Cycles(), budget=0, seed=5,
                                              trials=trials, base_proofs=base))
                for _ in range(2))
        assert a == b

    def test_seeds_draw_different_proofs(self):
        c = _broken_cycles(5)
        a, b = (check_soundness(c, Cycles(), budget=0, seed=seed, trials=1000)
                for seed in (1, 2))
        assert len(a.violations) == len(b.violations) == _MAX_RECORDED
        assert [v[0] for v in a.violations] != [v[0] for v in b.violations]

    @pytest.mark.parametrize("case", ["honest", "broken"])
    @pytest.mark.parametrize("mode", ["sampled", "exhaustive"])
    def test_report_does_not_depend_on_chunk_bounds(self, case, mode, monkeypatch):
        # 1 KB is one word per evaluation chunk and a few per membership and
        # pack block; 8 MB is one chunk for every batch here
        n = 16 if mode == "sampled" else 6
        c, _ = synth_exact_count(n, n // 2)
        if case == "broken":
            c = _output_to_input(c, 0)
        base = [witness_count("exact", n, n // 2, [1, 0] * (n // 2)),
                witness_count("exact", n, n // 2, [0] * (n // 2) + [1] * (n // 2))]
        texts = []
        for bound in (1 << 10, None, 1 << 23):
            with monkeypatch.context() as patch:
                if bound is not None:
                    patch.setattr(circuit, "_CHUNK_BYTES", bound)
                    patch.setattr(circuit, "_BLOCK_BYTES", bound)
                r = check_soundness(c, ExactCount(n // 2), budget=0 if mode == "sampled"
                                    else 1 << 20, seed=7, trials=(1 << 14) + 3000,
                                    base_proofs=base)
            texts.append(render_report(r))
            assert r.mode == mode
            assert r.passed == (case == "honest")
            assert (r.dropped > 0) == (case == "broken")
        assert texts[0] == texts[1] == texts[2]

    @pytest.mark.parametrize("m", [0, 1, 63, 1263])
    @pytest.mark.parametrize("words", [1, 3, 256])
    def test_uniform_words_are_the_rng_bytes_stream(self, m, words):
        got_rng, want_rng = (np.random.default_rng(m + words) for _ in range(2))
        got = verify._uniform_words(got_rng, m, words)
        want = np.frombuffer(want_rng.bytes(8 * m * words), "<u8").reshape(m, words)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        if m:  # rng.bytes(0) still draws one value
            assert got_rng.bytes(64) == want_rng.bytes(64)

    def test_mutated_witnesses_stay_sound(self):
        c, _ = synth_threshold(16, 8)
        base = [
            witness_count("threshold", 16, 8, [1] * 8 + [0] * 8),
            witness_count("threshold", 16, 8, [0, 1] * 8),
        ]
        r = check_soundness(c, Threshold(8), budget=1 << 10, trials=20000,
                            base_proofs=base)
        assert r.passed


class TestCompleteness:
    def test_regular_witness_mode(self, parity):
        c, _ = synth_regular(parity, 3)
        r = check_completeness(
            c, Regular(parity), 3,
            witness_fn=lambda w: witness_regular(parity, w),
        )
        assert r.passed and r.mode == "witness" and r.trials == 4

    @pytest.mark.parametrize("chunk", [3, 1 << 14])
    def test_batched_witnesses_match_per_member_reference(self, chunk, monkeypatch):
        c, _ = synth_threshold(7, 3)
        members = enumerate_slice(Threshold(3), 7)
        want = _witness_completeness_reference(
            c, Threshold(3), members, _flaky_count_witness(7, 3))
        calls = []

        def counting_eval_batch(circuit, proofs):
            calls.append(len(proofs))
            return eval_batch(circuit, proofs)

        monkeypatch.setattr(verify, "_CHUNK", chunk)
        monkeypatch.setattr(verify, "eval_batch", counting_eval_batch)
        got = check_completeness(c, Threshold(3), 7,
                                 witness_fn=_flaky_count_witness(7, 3),
                                 members=members)
        reasons = {reason.split()[0] for _, _, reason in got.violations}
        assert reasons == {"witness_fn:", "wanted"} and got.dropped > 0
        assert got.violations == want.violations
        assert render_report(got) == render_report(want)
        assert len(calls) == -(-len(members) // chunk)
        assert sum(calls) == len(members) - (len(members) + 2) // 3

    @pytest.mark.parametrize("chunk", [5, 1 << 14])
    @pytest.mark.parametrize("case", ["broken", "few", "empty"])
    def test_chunk_checks_match_per_member_reference(self, case, chunk, parity, monkeypatch):
        """The same violations, in member order, and the same dropped count
        as one eval_batch call per member: a broken circuit with witness
        errors interleaved (more violations than are stored), a few
        violations, and no members at all."""
        n = 6
        c, _ = synth_regular(parity, n)
        if case != "few":
            c = _output_to_input(c, 2)
        members = enumerate_slice(Regular(parity), n)
        if case == "empty":
            members = members[:0]

        def witness(w):
            if case == "few":  # one proof of the wrong word, one failure
                if not w[:3].any():
                    raise RuntimeError("no proof for " + verify._bits_str(w))
                return witness_regular(parity, w[::-1] if w[3:].all() else w)
            if w[1] and not w[4]:
                raise RuntimeError("no proof for " + verify._bits_str(w))
            proof = witness_regular(parity, w)
            return proof.tolist() if w[0] else proof  # lists take the slow coercion

        want = _witness_completeness_reference(c, Regular(parity), members, witness)
        monkeypatch.setattr(verify, "_CHUNK", chunk)
        got = check_completeness(c, Regular(parity), n, witness_fn=witness, members=members)
        assert got.violations == want.violations and got.dropped == want.dropped
        assert render_report(got) == render_report(want)
        assert got.trials == len(members)
        if case == "broken":
            reasons = [reason.split()[0] for _, _, reason in got.violations]
            assert "witness_fn:" in reasons and "wanted" in reasons and got.dropped > 0
        elif case == "few":
            assert 0 < got.violation_count < _MAX_RECORDED
        else:
            assert got.passed

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_proof_width_message_is_unchanged(self, extra, parity):
        c, _ = synth_regular(parity, 4)
        m = c.num_inputs
        bad = np.zeros(m + extra, dtype=np.uint8)
        with pytest.raises(InputArityError) as want:
            circuit._as_bits(bad, (m,), "proof")
        members = enumerate_slice(Regular(parity), 4)

        def witness(w):  # good proofs, then the wrong length
            return bad if w[0] else witness_regular(parity, w)

        with pytest.raises(InputArityError) as got:
            check_completeness(c, Regular(parity), 4, witness_fn=witness, members=members)
        assert str(got.value) == str(want.value) == f"proof length {m + extra} != {m}"

    @pytest.mark.parametrize("form", ["array", "list"])
    def test_non_binary_proof_raises(self, form, parity):
        c, _ = synth_regular(parity, 4)

        def witness(w):
            proof = witness_regular(parity, w).astype(np.int64)
            proof[-1] = 2
            return proof if form == "array" else proof.tolist()

        with pytest.raises(circuit.InputBitError, match="proof bits must be 0 or 1"):
            check_completeness(c, Regular(parity), 4, witness_fn=witness)

    def test_string_proofs_are_accepted(self, parity):
        c, _ = synth_regular(parity, 4)

        def witness(w):
            return verify._bits_str(witness_regular(parity, w))  # e.g. "0101..."

        r = check_completeness(c, Regular(parity), 4, witness_fn=witness)
        assert r.passed and r.trials == 8

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_proof_width_raises(self, extra):
        c, _ = synth_threshold(4, 2)
        proof = np.zeros(c.num_inputs + extra, dtype=np.uint8)
        with pytest.raises(InputArityError):
            check_completeness(c, Threshold(2), 4, witness_fn=lambda w: proof)

    def test_threshold_full_range(self):
        c, _ = synth_threshold(4, 2)
        r = check_completeness(c, Threshold(2), 4)
        assert r.passed and r.mode == "exhaustive"

    def test_witness_failure_recorded(self, parity):
        c, _ = synth_regular(parity, 3)

        def bad_witness(w):
            raise RuntimeError("nope")

        r = check_completeness(c, Regular(parity), 3, witness_fn=bad_witness)
        assert not r.passed and len(r.violations) == 4

    def test_budget_refusal(self, parity):
        c, _ = synth_regular(parity, 8)
        with pytest.raises(BudgetError):
            check_completeness(c, Regular(parity), 8, budget=1 << 10)

    def test_witness_mode_storage_is_bounded(self):
        # the circuit maps every proof to 0^12, so each of the 4,095 members
        # of Threshold(1) fails; a few witnesses also raise
        b = CircuitBuilder(1)
        b.set_outputs([b.const(0)] * 12)
        members = enumerate_slice(Threshold(1), 12)

        def witness(w):
            if w[:4].all():
                raise RuntimeError("no witness")
            return [0]

        r = check_completeness(b.build(), Threshold(1), 12, witness_fn=witness,
                               members=members)
        assert len(members) == 4095
        assert len(r.violations) <= _MAX_RECORDED
        assert r.violation_count == 4095
        assert r.machine_line() == "FAIL completeness 4095 4095"
        assert "violations: 4095" in r.text()

    def test_exhaustive_mode_storage_is_bounded(self):
        # a constant 1^12 circuit misses 4,094 of the 4,095 members
        b = CircuitBuilder(0)
        b.set_outputs([b.const(1)] * 12)
        r = check_completeness(b.build(), Threshold(1), 12)
        assert len(r.violations) <= _MAX_RECORDED
        assert r.violation_count == 4094
        assert r.machine_line() == "FAIL completeness 1 4094"
        # a range word outside the slice is still counted
        r = check_completeness(b.build(), Threshold(1), 12,
                               members=enumerate_slice(Threshold(1), 12)[:-1])
        assert r.violation_count == 4095

    @pytest.mark.parametrize("case", ["exact", "missing", "extra", "both", "width"])
    def test_exhaustive_reports_match_string_reference(self, case):
        c, _ = synth_threshold(7, 3)
        spec, n = {"exact": (Threshold(3), 7), "missing": (Threshold(2), 7),
                   "extra": (Threshold(5), 7), "both": (Threshold(3), 7),
                   "width": (Threshold(3), 6)}[case]
        members = enumerate_slice(spec, n)
        if case == "both":  # a few members dropped, one non-member added
            members = np.concatenate([members[3:], np.zeros((1, n), dtype=np.uint8)])
        got = check_completeness(c, spec, n, members=members)
        want = _exhaustive_completeness_reference(c, members)
        assert got.violations == want.violations and got.dropped == want.dropped
        assert render_report(got) == render_report(want)
        assert got.passed == (case == "exact")

    def test_missing_member_detected(self):
        # a constant circuit misses most threshold words
        b = CircuitBuilder(0)
        b.set_outputs([b.const(1) for _ in range(4)])
        r = check_completeness(b.build(), Threshold(2), 4)
        assert not r.passed
        assert any("member not in range" in v[2] for v in r.violations)


class TestLocality:
    def test_cycles_cone_bound(self):
        r = locality_audit(synth_cycles(50), max_cone=6)
        assert r.passed

    def test_unreach_cone_bound(self):
        r = locality_audit(synth_unreach(50), max_cone=3)
        assert r.passed

    def test_violated_bound_reported(self):
        r = locality_audit(synth_cycles(10), max_cone=1)
        assert not r.passed and "cone" in r.violations[0][2]

    def test_depth_bound(self, parity):
        c, _ = synth_regular(parity, 16)
        assert locality_audit(c, max_depth=18, max_alternations=5).passed
        assert not locality_audit(c, max_depth=1).passed


class TestReport:
    def test_render(self):
        r = Report("soundness", "exhaustive", 16)
        text = render_report(r)
        assert "PASS soundness 16 0" in text
        assert "result:     PASS" in text

    def test_fail_line(self):
        r = Report("soundness", "sampled", 10,
                   violations=[("0", "1", "reason")])
        assert r.machine_line() == "FAIL soundness 10 1"
