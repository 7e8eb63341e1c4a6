"""Timing and known-answer bookkeeping for one pass of a workload.

A pass times every call it makes into rangesynth by the end-to-end category
the call belongs to (compile or certify) and compares every answer with the
known one.  Operations are verdicts, witness round trips, CLI exit codes and
oracle checks of circuit outputs; every disagreement counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import time
from array import array

import numpy as np

from rangesynth import circuit, cli, verify

from .hostspeed import reference_s

_MAX_MESSAGES = 10


class Pass:
    """What one pass measured.

    ``segments`` holds one ``(category, kind, seconds, memory_bound)`` entry
    per timed call, in call order: category is ``compile`` or ``certify``,
    kind is ``sound`` (check_soundness), ``complete`` (witness-mode
    check_completeness) or ``other``, and ``memory_bound`` marks the calls
    ``hostspeed`` scales by its memory kernel too.  Every pass over the same inputs makes the same calls, so runs
    can take the median of each call across passes.

    ``refs`` holds a timing of the host-speed reference kernels before every
    timed call and one after the last, so call ``i`` ran between ``refs[i]``
    and ``refs[i + 1]``.  ``witness_seg`` gives, for each witness latency,
    the index of the timed call it was made in.
    """

    FIELDS = ("segments", "refs", "sound_trials", "members", "witness_s",
              "witness_seg", "gates", "depth", "alternations", "max_cone",
              "ops", "failed", "messages", "wall_s")

    def __init__(self, workdir: str = ""):
        self.workdir = workdir
        self.segments: list[tuple[str, str, float, bool]] = []
        self.refs: list[tuple[float, float]] = []
        self.sound_trials = 0
        self.members = 0
        self.witness_s: list[float] = []
        self.witness_seg: list[int] = []
        self.gates = self.depth = self.alternations = self.max_cone = 0
        self.ops = self.failed = 0
        self.messages: list[str] = []
        self.wall_s = 0.0

    def to_json(self) -> dict:
        return {f: getattr(self, f) for f in self.FIELDS}

    @classmethod
    def from_json(cls, data: dict) -> "Pass":
        rec = cls()
        for f in cls.FIELDS:
            setattr(rec, f, data[f])
        rec.segments = [tuple(seg) for seg in rec.segments]
        return rec

    def _timed(self, category: str, kind: str, fn, *args, memory_bound=False,
               **kw):
        self.refs.append(reference_s())
        t0 = time.perf_counter()
        out = fn(*args, **kw)
        self.segments.append((category, kind, time.perf_counter() - t0,
                              memory_bound))
        return out

    # -- known answers -----------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        self.ops += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < _MAX_MESSAGES:
                self.messages.append(what)
        return ok

    # -- timed calls -------------------------------------------------------

    def compile(self, fn, *args):
        return self._timed("compile", "other", fn, *args)

    def soundness(self, c, spec, expect_pass: bool, what: str,
                  memory_bound: bool = False, **kw):
        """check_soundness with the known verdict; returns the report."""
        report = self._timed("certify", "sound", verify.check_soundness,
                             c, spec, memory_bound=memory_bound, **kw)
        self.sound_trials += report.trials
        self.check(report.passed == expect_pass,
                   f"{what}: soundness {report.machine_line()}")
        return report

    def completeness(self, c, spec, n: int, witness_fn, members, what: str):
        """Witness-mode check_completeness; every member must round-trip."""
        lat, seg = self.witness_s, self.witness_seg
        this_call = len(self.segments)

        def timed(word):
            t0 = time.perf_counter()
            try:
                return witness_fn(word)
            finally:
                lat.append(time.perf_counter() - t0)
                seg.append(this_call)

        report = self._timed("certify", "complete", verify.check_completeness,
                             c, spec, n, witness_fn=timed, members=members)
        self.members += report.trials
        self.ops += report.trials
        self.failed += len(report.violations)
        self.check(report.passed and report.trials == len(members),
                   f"{what}: completeness {report.machine_line()}")
        return report

    def audit(self, c, what: str, **bounds):
        """locality_audit against declared bounds; adds the structure sums."""
        report = self._timed("certify", "other", verify.locality_audit, c, **bounds)
        self.check(report.passed, f"{what}: locality {report.machine_line()}")
        snap = report.metrics
        self.add_structure(snap.size, snap.depth, snap.alternations)
        self.max_cone = max(self.max_cone, snap.max_cone)
        return snap

    def add_structure(self, gates: int, depth: int, alternations: int):
        self.gates += gates
        self.depth += depth
        self.alternations += alternations

    def cli(self, argv: list, expect_code: int, category: str) -> str:
        """One subcommand through cli.run; returns what it printed."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self._timed(category, "other", cli.run, argv)
        self.check(code == expect_code,
                   f"rangesynth {' '.join(argv)}: exit {code}, wanted {expect_code}")
        return out.getvalue()

    def spot_check(self, c, oracle, rng, rows: int, what: str):
        """Evaluate random proofs and check each output word with the oracle."""
        proofs = rng.integers(0, 2, (rows, c.num_inputs), dtype=np.uint8)
        outs = circuit.eval_batch(c, proofs)
        bad = sum(1 for w in outs if not oracle(w))
        self.ops += rows
        self.failed += bad
        if bad and len(self.messages) < _MAX_MESSAGES:
            self.messages.append(f"{what}: {bad} of {rows} outputs not members")


def negate_output(c, j: int):
    """The circuit with output j replaced by its negation."""
    kinds, a0, a1 = (array(arr.typecode, arr) for arr in (c.kinds, c.arg0, c.arg1))
    kinds.append(circuit.NOT)
    a0.append(c.outputs[j])
    a1.append(0)
    outputs = list(c.outputs)
    outputs[j] = len(c.kinds)
    return circuit.Circuit(c.num_inputs, kinds, a0, a1, outputs)


def broken_is_caught(rec: Pass, report, oracle, what: str):
    """A broken circuit must FAIL, and on a word the oracle also rejects."""
    out = report.violations[0][1] if report.violations else ""
    rec.check(bool(out) and not oracle([int(ch) for ch in out]),
              f"{what}: reported violation {out!r} is a member")
