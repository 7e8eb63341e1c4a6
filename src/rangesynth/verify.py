"""Definition-1 compliance harness.

A proof-system circuit is sound when every input evaluates into the target
slice, and complete when every slice word has a preimage.  Exhaustive sweeps
certify both exactly at desk scale; beyond the budget the harness samples
uniform proofs plus mutation probes (honest witnesses with a few flipped
bits), which exercise the almost-consistent regime where the constructions
do their real work.

Proofs are evaluated bit-sliced, 64 to a machine word.  A uniform chunk of
``take`` proofs on m bits is drawn as ``2 * m * ceil(take / 64)`` uniform
uint32 values, viewed without a copy as little-endian uint64 words of shape
(m, ceil(take / 64)): bit i of proof r is bit r % 64 of word [i, r // 64],
and the bits past ``take`` are ignored.  That is the same stream, byte for
byte, as ``rng.bytes(8 * m * ceil(take / 64))``, which numpy draws the same
way and then copies twice.  The stream is deterministic per seed; it
replaced a per-bit uint8 draw, so a seed now samples different proofs than
it did before.

Membership is decided on the evaluator's packed output words as well
(``languages._member_packed``).  Outputs are unpacked only for the rows
stored as violations and, for NP and combinator specs, for the distinct
output words handed to the per-word oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .circuit import (
    Circuit, _all_packed, _as_bits, _eval_packed, _pack_rows, _packed_rows,
    circuit_range, eval_batch, metrics,
)
from .languages import (
    BudgetError, _member_packed, enumerate_slice, word_to_string as _bits_str,
)

__all__ = [
    "Report",
    "check_soundness",
    "check_completeness",
    "locality_audit",
    "audit_metrics",
    "render_report",
]

DEFAULT_BUDGET = 1 << 24
_MAX_RECORDED = 10
_CHUNK = 1 << 14  # proofs per evaluation when sampling or checking witnesses


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


def _record(report: Report, proofs, outs, ok: np.ndarray, reason: str):
    """Store the first _MAX_RECORDED violations; only count the rest.

    ``proofs`` and ``outs`` are the (N, m) proof and (N, n) output bits, or
    functions from row indexes to those rows' bits, so that a packed batch
    unpacks only the rows stored.
    """
    bad = np.flatnonzero(~ok)
    keep = bad[: max(0, _MAX_RECORDED - len(report.violations))]
    rows = [x(keep) if callable(x) else x[keep] for x in (proofs, outs)]
    for proof, out in zip(*rows):
        report.violations.append((_bits_str(proof), _bits_str(out), reason))
    report.dropped += len(bad) - len(keep)


def _check_packed(report: Report, c: Circuit, spec, P: np.ndarray, rows: int):
    """Record the first ``rows`` bit-sliced proofs in P whose output is no member."""
    Q = _eval_packed(c, P)
    ok = _member_packed(spec, Q, rows)
    if not ok.all():
        _record(report, partial(_packed_rows, P), partial(_packed_rows, Q), ok,
                "output not in language")


def _uniform_words(rng, m: int, words: int) -> np.ndarray:
    """(m, words) uniform uint64 words: ``rng.bytes(8 * m * words)`` read as
    little-endian uint64, without its copies.  (At m = 0, ``rng.bytes(0)``
    still draws one value, and this draws none.)"""
    draw = rng.integers(0, 1 << 32, 2 * m * words, dtype=np.uint32)
    return draw.astype("<u4", copy=False).view("<u8").reshape(m, words)


def check_soundness(c: Circuit, spec, budget: int = DEFAULT_BUDGET, seed: int = 0,
                    trials: int = 1_000_000, base_proofs=None) -> Report:
    """Every proof input must evaluate to a member word.

    Exhaustive when 2^m fits the budget; otherwise uniform sampling plus
    1-3 bit mutations of the given honest proofs (when provided), in
    alternating chunks of _CHUNK proofs.  Uniform chunks are drawn packed
    (see the module docstring) and never exist as a uint8 matrix.
    """
    m = c.num_inputs
    base = None
    if base_proofs is not None and np.size(base_proofs):
        base = _as_bits(base_proofs, (None, m), "base proofs")
    if m <= 62 and (1 << m) <= budget:
        report = Report("soundness", "exhaustive", 1 << m)
        for P, rows in _all_packed(m):
            _check_packed(report, c, spec, P, rows)
        return report

    if trials < 1:
        raise ValueError(f"sampled soundness needs trials >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    report = Report("soundness", "sampled", trials)
    for done in range(0, trials, _CHUNK):
        take = min(_CHUNK, trials - done)
        if base is not None and (done // _CHUNK) % 2 == 1:
            proofs = base[rng.integers(0, len(base), take)]
            flips = rng.integers(1, 4, take)
            hit = rng.integers(0, m, int(flips.sum()))
            proofs[np.repeat(np.arange(take), flips), hit] ^= 1
            P = _pack_rows(proofs)
        else:
            P = _uniform_words(rng, m, -(-take // 64))
        _check_packed(report, c, spec, P, take)
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
    members = _as_bits(members, (None, n), "members")
    m = c.num_inputs

    if witness_fn is not None:
        report = Report("completeness", "witness", len(members))
        for start in range(0, len(members), _CHUNK):
            rows = members[start : start + _CHUNK]
            proofs, errors = [], {}  # errors: row -> the witness failure
            for i, row in enumerate(rows):
                try:
                    proof = witness_fn(row)
                except Exception as exc:  # witness failure is a finding, not a crash
                    errors[i] = f"witness_fn: {exc}"
                    continue
                if getattr(proof, "shape", None) != (m,):  # lists, strings, wrong shapes
                    proof = _as_bits(proof, (m,), "proof")
                proofs.append(proof)
            batch = _as_bits(np.array(proofs).reshape(len(proofs), m), (None, m), "proof")
            outs = eval_batch(c, batch)
            proved = np.ones(len(rows), dtype=bool)
            proved[list(errors)] = False
            wrong = ~proved
            wrong[proved] = outs.shape[1] != n or (outs != rows[proved]).any(axis=1)
            slot = np.cumsum(proved) - 1  # each proved row's proof
            for i in np.flatnonzero(wrong).tolist():  # violations in member order
                if i in errors:
                    _note(report, "<none>", _bits_str(rows[i]), errors[i])
                else:
                    _note(report, _bits_str(batch[slot[i]]), _bits_str(outs[slot[i]]),
                          f"wanted {_bits_str(rows[i])}")
        return report

    if m > 62 or (1 << m) > budget:
        raise BudgetError(
            f"full-range completeness needs 2^{m} evaluations, over budget"
        )
    have = circuit_range(c, budget)
    want = {row.tobytes() for row in members}
    report = Report("completeness", "exhaustive", 1 << m)
    for proof, words, reason in (("<none>", want - have, "member not in range"),
                                 ("<unknown>", have - want, "range word not a member")):
        words = sorted(words)  # bytes of 0/1 values sort like their strings
        room = max(0, _MAX_RECORDED - len(report.violations))
        report.violations += [(proof, _bits_str(w), reason) for w in words[:room]]
        report.dropped += len(words[room:])
    return report


def locality_audit(c: Circuit, max_cone=None, max_depth=None,
                   max_alternations=None) -> Report:
    """Compare measured structural metrics against declared bounds."""
    return audit_metrics(metrics(c, with_cones=max_cone is not None),
                         max_cone, max_depth, max_alternations)


def audit_metrics(snap, max_cone=None, max_depth=None,
                  max_alternations=None) -> Report:
    """:func:`locality_audit` on metrics already measured (with cones when
    ``max_cone`` is given)."""
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
