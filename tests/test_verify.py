"""Verification harness: soundness/completeness sweeps and locality audits."""

import numpy as np
import pytest

from rangesynth import verify
from rangesynth.circuit import (
    CircuitBuilder, InputArityError, eval_batch, parse, serialize,
)
from rangesynth.counting import synth_threshold, witness_count
from rangesynth.graphs import synth_cycles, synth_unreach, witness_graph
from rangesynth.languages import (
    BudgetError, Cycles, Regular, Threshold, enumerate_slice, member_batch,
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


def _broken_cycles(n):
    """Cycles circuit with one XOR dropped: emits odd-degree graphs."""
    c = synth_cycles(n)
    text = serialize(c)
    lines = text.strip("\n").split("\n")
    outs = lines[-1].split()[1:]
    # rewire one off-diagonal output straight to an input coefficient
    for k, o in enumerate(outs):
        if k % (n + 1) != 0:  # skip the diagonal
            outs[k] = "0"    # gate 0 is an INPUT in the serialized order
            break
    lines[-1] = "outputs " + " ".join(outs)
    return parse("\n".join(lines) + "\n")


def _sampled_soundness_reference(c, spec, seed, trials, base_proofs):
    """check_soundness in sampled mode with a per-row mutation loop.

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
            proofs = rng.integers(0, 2, (take, m), dtype=np.uint8)
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

        def recording_eval_batch(circuit, proofs):
            batches.append(proofs.copy())
            return eval_batch(circuit, proofs)

        monkeypatch.setattr(verify, "eval_batch", recording_eval_batch)
        got = check_soundness(c, spec, budget=0, seed=11, trials=trials,
                              base_proofs=base)
        assert len(batches) == len(want_batches) == 2
        for a, b in zip(batches, want_batches):
            assert np.array_equal(a, b)
        assert got.machine_line() == want.machine_line()
        assert got.violations == want.violations
        assert render_report(got) == render_report(want)
        if case == "broken_cycles":
            assert not got.passed

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
