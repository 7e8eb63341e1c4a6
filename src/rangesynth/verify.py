"""Definition-1 compliance harness.

A proof-system circuit is sound when every input evaluates into the target
slice, and complete when every slice word has a preimage.  Exhaustive sweeps
certify both exactly at desk scale; beyond the budget the harness samples
uniform proofs plus mutation probes (honest witnesses with a few flipped
bits), which exercise the almost-consistent regime where the constructions
do their real work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, _as_bits, all_inputs, eval_batch, metrics
from .languages import (
    BudgetError, candidate_count, enumerate_slice, member_batch,
    word_to_string as _bits_str, words_to_strings,
)

__all__ = [
    "Report",
    "check_soundness",
    "check_completeness",
    "locality_audit",
    "render_report",
]

DEFAULT_BUDGET = 1 << 24
_MAX_RECORDED = 10
_CHUNK = 1 << 14  # proofs per eval_batch call when sampling or checking witnesses


@dataclass
class Report:
    check: str
    mode: str                 # exhaustive | sampled | witness
    trials: int
    violations: list = field(default_factory=list)  # (proof, output, reason)
    metrics: object = None
    dropped: int = 0  # violations counted but not stored

    @property
    def violation_count(self) -> int:
        return len(self.violations) + self.dropped

    @property
    def passed(self) -> bool:
        return not self.violation_count

    def machine_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.check} {self.trials} {self.violation_count}"

    def text(self) -> str:
        lines = [
            f"check:      {self.check}",
            f"mode:       {self.mode}",
            f"trials:     {self.trials}",
            f"violations: {self.violation_count}",
        ]
        for proof, out, reason in self.violations[:_MAX_RECORDED]:
            lines.append(f"  proof={proof} output={out} ({reason})")
        if self.metrics is not None:
            lines.append(f"metrics:    {self.metrics}")
        lines.append("result:     " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def render_report(report: Report) -> str:
    return report.text() + "\n" + report.machine_line()


def _note(report: Report, proof: str, out: str, reason: str):
    """Store one violation while fewer than _MAX_RECORDED are stored; else count it."""
    if len(report.violations) < _MAX_RECORDED:
        report.violations.append((proof, out, reason))
    else:
        report.dropped += 1


def _record(report: Report, proofs: np.ndarray, outs: np.ndarray, ok: np.ndarray,
            reason: str):
    """Store the first _MAX_RECORDED violations; only count the rest."""
    bad = np.nonzero(~ok)[0]
    room = max(0, _MAX_RECORDED - len(report.violations))
    for i in bad[:room]:
        report.violations.append((_bits_str(proofs[i]), _bits_str(outs[i]), reason))
    report.dropped += max(0, len(bad) - room)


def check_soundness(c: Circuit, spec, budget: int = DEFAULT_BUDGET, seed: int = 0,
                    trials: int = 1_000_000, base_proofs=None) -> Report:
    """Every proof input must evaluate to a member word.

    Exhaustive when 2^m fits the budget; otherwise uniform sampling plus
    1-3 bit mutations of the given honest proofs (when provided).
    """
    m = c.num_inputs
    if m <= 62 and (1 << m) <= budget:
        report = Report("soundness", "exhaustive", 1 << m)
        for block in all_inputs(m):
            outs = eval_batch(c, block)
            ok = member_batch(spec, outs)
            if not ok.all():
                _record(report, block, outs, ok, "output not in language")
        return report

    if trials < 1:
        raise ValueError(f"sampled soundness needs trials >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    report = Report("soundness", "sampled", trials)
    base = None
    if base_proofs is not None and len(base_proofs):
        base = np.asarray(base_proofs, dtype=np.uint8)
    done = 0
    while done < trials:
        take = min(_CHUNK, trials - done)
        if base is not None and (done // _CHUNK) % 2 == 1:
            proofs = base[rng.integers(0, len(base), take)]
            flips = rng.integers(1, 4, take)
            hit = rng.integers(0, m, int(flips.sum()))
            proofs[np.repeat(np.arange(take), flips), hit] ^= 1
        else:
            proofs = rng.integers(0, 2, (take, m), dtype=np.uint8)
        outs = eval_batch(c, proofs)
        ok = member_batch(spec, outs)
        if not ok.all():
            _record(report, proofs, outs, ok, "output not in language")
        done += take
    return report


def check_completeness(c: Circuit, spec, n: int, witness_fn=None,
                       budget: int = DEFAULT_BUDGET, members=None) -> Report:
    """Every member word needs a preimage.

    With a witness function, each member (enumerated, or the given sample)
    is pushed through witness_fn and the circuit must map the proof back to
    the word.  Without one, the full range (feasible only for small proof
    width) is compared against the slice for set equality.
    """
    if members is None:
        members = enumerate_slice(spec, n, budget=budget)
    members = np.asarray(members, dtype=np.uint8)

    if witness_fn is not None:
        report = Report("completeness", "witness", len(members))
        for start in range(0, len(members), _CHUNK):
            rows = members[start : start + _CHUNK]
            proofs, errors = [], []
            for row in rows:
                try:
                    proof = np.asarray(witness_fn(row), dtype=np.uint8)
                except Exception as exc:  # witness failure is a finding, not a crash
                    errors.append(f"witness_fn: {exc}")
                    continue
                errors.append(None)
                proofs.append(_as_bits(proof, c.num_inputs, "proof"))
            batch = np.array(proofs, dtype=np.uint8).reshape(len(proofs), c.num_inputs)
            results = zip(proofs, eval_batch(c, batch))
            for row, error in zip(rows, errors):  # violations in member order
                if error is not None:
                    _note(report, "<none>", _bits_str(row), error)
                    continue
                proof, out = next(results)
                if not np.array_equal(out, row):
                    _note(report, _bits_str(proof), _bits_str(out),
                          f"wanted {_bits_str(row)}")
        return report

    m = c.num_inputs
    if m > 62 or (1 << m) > budget:
        raise BudgetError(
            f"full-range completeness needs 2^{m} evaluations, over budget"
        )
    have = set()
    for block in all_inputs(m):
        outs = eval_batch(c, block)
        have.update(words_to_strings(outs))
    want = set(words_to_strings(members))
    report = Report("completeness", "exhaustive", 1 << m)
    for word in sorted(want - have):
        _note(report, "<none>", word, "member not in range")
    for word in sorted(have - want):
        _note(report, "<unknown>", word, "range word not a member")
    return report


def locality_audit(c: Circuit, max_cone=None, max_depth=None,
                   max_alternations=None) -> Report:
    """Compare measured structural metrics against declared bounds."""
    snap = metrics(c, with_cones=max_cone is not None)
    report = Report("locality", "exhaustive", 1, metrics=snap)
    if max_cone is not None and snap.max_cone > max_cone:
        worst = int(np.argmax(snap.cone_sizes))
        report.violations.append(
            ("<structure>", f"output {worst}",
             f"cone {snap.max_cone} > bound {max_cone}")
        )
    if max_depth is not None and snap.depth > max_depth:
        report.violations.append(
            ("<structure>", "", f"depth {snap.depth} > bound {max_depth}")
        )
    if max_alternations is not None and snap.alternations > max_alternations:
        report.violations.append(
            ("<structure>", "",
             f"alternations {snap.alternations} > bound {max_alternations}")
        )
    return report
