"""SAC0 / co-SAC0 proof systems from NP verifier circuits.

A verifier V(x, y) with a single output certifies x when some witness y
makes it accept.  The proof system takes x, y, and one claimed value bit z
per logic gate of V; per-gate truth tables check that z is the honest
evaluation.  The co-SAC variant ANDs x with all consistency bits and the
claimed output, collapsing any lie to the all-zero word; the SAC variant ORs
x with any inconsistency, collapsing to all-ones.  Either way the range is
exactly the certified slice plus that one absorbing word, and negations
appear only on input literals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .circuit import (
    _ALL_ONES, AND, CONST, INPUT, NOT,
    Circuit, CircuitBuilder, ParseError, _all_packed, _as_bits, _eval_packed,
    _packed_rows, _parse, _unpack_rows, eval_batch, serialize, size, stamp_tables,
)
from .languages import LanguageError
from .regular import WitnessError

__all__ = [
    "VerifierCircuit",
    "parse_verifier",
    "serialize_verifier",
    "verifier_member",
    "synth_co_sac",
    "synth_sac",
    "pad_language",
]


@dataclass(frozen=True)
class VerifierCircuit:
    """Single-output circuit whose inputs split into x (num_x) then y."""

    circuit: Circuit
    num_x: int
    num_y: int

    def __post_init__(self):
        if len(self.circuit.outputs) != 1:
            raise LanguageError("verifier must have exactly one output")
        if self.num_x < 0 or self.num_y < 0:
            raise LanguageError("negative input split")
        if self.num_x + self.num_y != self.circuit.num_inputs:
            raise LanguageError(
                f"split {self.num_x}+{self.num_y} != {self.circuit.num_inputs} inputs"
            )


def serialize_verifier(v: VerifierCircuit) -> str:
    """Circuit text format with a ``split <num_x> <num_y>`` line after the
    header, so gate i is on line i + 3."""
    text = serialize(v.circuit)
    head = text.index("\n") + 1
    return f"{text[:head]}split {v.num_x} {v.num_y}\n{text[head:]}"


# a line break, as str.splitlines sees one; and the first line, in that
# sense, whose first token is "split"
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_SPLIT_LINE = re.compile(rf"(?:^|(?<=[{_BREAKS}]))[^\S{_BREAKS}]*split"
                         rf"(?:[^\S{_BREAKS}][^{_BREAKS}]*)?(?:\r\n|[{_BREAKS}]|\Z)")


def parse_verifier(text: str) -> VerifierCircuit:
    """Read a verifier: circuit text plus one ``split <num_x> <num_y>`` line
    anywhere.  The split line is cut out and the rest parsed; every error
    names its line in ``text``."""
    found = _SPLIT_LINE.search(text)
    if found is None:
        raise ParseError("missing 'split <n> <p>' header line")
    line = len(text[: found.start()].splitlines()) + 1
    try:
        num_x, num_y = map(int, found.group().split()[1:])
    except ValueError:  # not two fields, or not integers
        raise ParseError("split line needs two integers", line) from None
    circuit = _parse(text[: found.start()] + text[found.end():], line)
    return VerifierCircuit(circuit, num_x, num_y)


def _certificate(v: VerifierCircuit, x: np.ndarray) -> np.ndarray | None:
    """The first y, in :func:`_all_packed` order, with V(x, y) = 1; None if
    there is none.

    Each x bit is a word of all ones or all zeros over the bit-sliced ys,
    and each chunk of ys takes one :func:`_eval_packed` call.
    """
    X = np.where(x == 1, _ALL_ONES, np.uint64(0))[:, None]
    for Y, rows in _all_packed(v.num_y):
        P = np.concatenate([np.broadcast_to(X, (v.num_x, Y.shape[1])), Y])
        hits = np.flatnonzero(_unpack_rows(_eval_packed(v.circuit, P), rows))
        if len(hits):
            return _packed_rows(Y, hits[:1])[0]
    return None


def verifier_member(v: VerifierCircuit, x) -> bool:
    """Brute-force exists-y membership; meant for desk-scale verifiers."""
    x = _as_bits(x, (v.num_x,), "x", LanguageError)
    return _certificate(v, x) is not None


# ---------------------------------------------------------------------------
# the two constructions


def _gate_checks(b: CircuitBuilder, v: VerifierCircuit, want_consistent: bool):
    """Per-logic-gate (in)consistency bits plus the claimed-output wire.

    Returns (check_wires, z_out, x_wires).  Inputs of the new builder are
    laid out as x, y, then one z bit per logic gate of v in gate order; the
    x and z bits, and the y bits a gate of v reads, get one INPUT gate each.
    One :func:`stamp_tables` call checks every logic gate: its row holds its
    operands' values, each a proof bit or a CONST, and its own z.
    """
    c = v.circuit
    kinds, a0, a1 = c._arrays()
    logic = np.flatnonzero(kinds >= NOT)
    binary = kinds[logic] >= AND
    nxy = c.num_inputs
    bit = np.full(c.num_gates, -1, dtype=np.int64)  # each gate's proof bit
    bit[kinds == INPUT] = a0[kinds == INPUT]
    bit[logic] = nxy + np.arange(len(logic))
    read = np.concatenate([a0[logic], a1[logic[binary]], c.outputs]).astype(np.int64)
    used = np.zeros(nxy + len(logic), dtype=bool)
    used[:v.num_x] = used[nxy:] = True
    read_bits = bit[read]
    used[read_bits[read_bits >= 0]] = True
    wire = np.full(len(used) + 1, -1, dtype=np.int64)  # bit -1 maps to -1
    runs = np.flatnonzero(np.diff(np.concatenate([[0], used, [0]]).astype(np.int8)))
    for lo, hi in runs.reshape(-1, 2).tolist():
        wire[lo:hi] = b.inputs(lo, hi - lo)
    value = wire[bit]
    for bit_value in (0, 1):
        const = (kinds == CONST) & (a0 == bit_value)
        if const[read].any():
            value[const] = b.const(bit_value)
    rows = np.column_stack([value[a0[logic]],
                            np.where(binary, value[a1[logic]], value[logic]),
                            np.where(binary, value[logic], -1)])
    # the NOT, AND and OR checks over (a, z) and (a, b, z), least significant first
    r = np.arange(8)
    tables = [((r >> 1 & 1) != (r & 1))[:4], r >> 2 == r & r >> 1 & 1,
              r >> 2 == (r | r >> 1) & 1]
    checks = stamp_tables(b, [t == want_consistent for t in tables], rows, kinds[logic] - NOT)
    return checks.tolist(), int(value[c.outputs[0]]), wire[:v.num_x].tolist()


def _proof_inputs(v: VerifierCircuit) -> int:
    return v.circuit.num_inputs + size(v.circuit)


def synth_co_sac(v: VerifierCircuit) -> Circuit:
    """w_i = x_i AND (all gates consistent) AND (claimed output is 1)."""
    b = CircuitBuilder(_proof_inputs(v))
    checks, z_out, xs = _gate_checks(b, v, want_consistent=True)
    big = b.and_tree(checks + [z_out])
    b.set_outputs([b.and_(x, big) for x in xs])
    return b.build()


def synth_sac(v: VerifierCircuit) -> Circuit:
    """w_i = x_i OR (some gate inconsistent) OR (claimed output is 0)."""
    b = CircuitBuilder(_proof_inputs(v))
    checks, z_out, xs = _gate_checks(b, v, want_consistent=False)
    big = b.or_tree(checks + [b.not_(z_out)])
    b.set_outputs([b.or_(x, big) for x in xs])
    return b.build()


def pad_verifier(v: VerifierCircuit, n: int) -> VerifierCircuit:
    """Verifier for ({1} . L . {0}) union {0^n} union {1^n} on n-bit words."""
    if n < 2:
        raise LanguageError("padded language needs n >= 2")
    if n != v.num_x + 2:
        raise LanguageError(
            f"padded length {n} must be core length {v.num_x} plus 2"
        )
    b = CircuitBuilder(n + v.num_y)
    xs = b.inputs(0, n)
    ys = b.inputs(n, v.num_y)
    core = b.append_circuit(v.circuit, xs[1 : n - 1] + ys)[0]
    framed = b.and_tree([xs[0], b.not_(xs[-1]), core])
    all0 = b.and_tree([b.not_(x) for x in xs])
    all1 = b.and_tree(xs)
    b.set_outputs([b.or_tree([framed, all0, all1])])
    return VerifierCircuit(b.build(), n, v.num_y)


def pad_language(v: VerifierCircuit, n: int):
    """(SAC, co-SAC) proof systems for the padded language at length n."""
    padded = pad_verifier(v, n)
    return synth_sac(padded), synth_co_sac(padded)


# ---------------------------------------------------------------------------
# witnesses


def witness_np(v: VerifierCircuit, variant: str, x) -> np.ndarray:
    """Proof reproducing x under synth_sac / synth_co_sac of v.

    Works for members (honest evaluation) and for the absorbing word of the
    variant (0^n for co-SAC, 1^n for SAC), which every proof system built
    here must also cover.
    """
    x = _as_bits(x, (v.num_x,), "x", WitnessError)
    if variant not in ("cosac", "sac"):
        raise WitnessError(f"unknown variant {variant!r}; expected 'cosac' or 'sac'")
    c = v.circuit
    good_y = _certificate(v, x)
    absorbing = not x.any() if variant == "cosac" else bool(x.all())
    if good_y is None:
        if not absorbing:
            raise WitnessError("no witness certifies this word")
        good_y = np.zeros(v.num_y, dtype=np.uint8)
    # honest z = gate evaluation; when only the absorbing word applies and
    # the verifier rejects, the honest z has claimed output 0, which already
    # collapses the output as needed.
    logic = [g for g, k in enumerate(c.kinds) if k >= NOT]
    gates = c._with_outputs(logic)
    xy = np.concatenate([x, good_y])
    return np.concatenate([xy, eval_batch(gates, xy[None])[0]])
