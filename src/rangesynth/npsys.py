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

from dataclasses import dataclass

import numpy as np

from .circuit import (
    AND, CONST, INPUT, NOT,
    Circuit, CircuitBuilder, ParseError, _as_bits, all_inputs, eval_batch,
    lower_fields, parse, serialize, size,
)
from .languages import LanguageError

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
    """Circuit text format with a `split <n> <p>` line after the header."""
    lines = serialize(v.circuit).splitlines()
    lines.insert(1, f"split {v.num_x} {v.num_y}")
    return "\n".join(lines) + "\n"


def parse_verifier(text: str) -> VerifierCircuit:
    lines = text.splitlines()
    split_at = None
    split_vals = None
    for i, line in enumerate(lines):
        toks = line.split()
        if toks and toks[0] == "split":
            if len(toks) != 3:
                raise ParseError("split line needs two integers", i + 1)
            try:
                split_vals = (int(toks[1]), int(toks[2]))
            except ValueError:
                raise ParseError("split line needs two integers", i + 1) from None
            split_at = i
            break
    if split_at is None:
        raise ParseError("missing 'split <n> <p>' header line")
    del lines[split_at]
    circuit = parse("\n".join(lines) + "\n")
    return VerifierCircuit(circuit, split_vals[0], split_vals[1])


def _certificate(v: VerifierCircuit, x: np.ndarray) -> np.ndarray | None:
    """The first y, in all_inputs order, with V(x, y) = 1; None if there is none."""
    for ys in all_inputs(v.num_y):
        batch = np.concatenate(
            [np.broadcast_to(x, (len(ys), v.num_x)), ys], axis=1
        )
        hits = np.flatnonzero(eval_batch(v.circuit, batch)[:, 0])
        if len(hits):
            return ys[hits[0]]
    return None


def verifier_member(v: VerifierCircuit, x) -> bool:
    """Brute-force exists-y membership; meant for desk-scale verifiers."""
    x = _as_bits(x, what="x")
    if len(x) != v.num_x:
        raise LanguageError(f"x must have length {v.num_x}")
    return _certificate(v, x) is not None


# ---------------------------------------------------------------------------
# the two constructions


def _gate_checks(b: CircuitBuilder, v: VerifierCircuit, want_consistent: bool):
    """Per-logic-gate (in)consistency bits plus the claimed-output wire.

    Returns (check_wires, z_out).  Inputs of the new builder are laid
    out as x, y, then one z bit per logic gate of v in gate order.
    """
    c = v.circuit
    nxy = c.num_inputs
    z_index: dict[int, int] = {}
    for g in range(c.num_gates):
        if c.kinds[g] >= NOT:
            z_index[g] = len(z_index)

    def value_wire(g: int) -> int:
        k = c.kinds[g]
        if k == INPUT:
            return b.input(c.arg0[g])
        if k == CONST:
            return b.const(c.arg0[g])
        return b.input(nxy + z_index[g])

    checks = []
    for g, zi in z_index.items():
        k = c.kinds[g]
        zg = b.input(nxy + zi)
        if k == NOT:
            fields = [([value_wire(c.arg0[g])], None), ([zg], None)]
            fn = lambda a, z: (z == 1 - a) == want_consistent
        else:
            op = (lambda a, bb: a & bb) if k == AND else (lambda a, bb: a | bb)
            fields = [
                ([value_wire(c.arg0[g])], None),
                ([value_wire(c.arg1[g])], None),
                ([zg], None),
            ]
            fn = lambda a, bb, z, op=op: (z == op(a, bb)) == want_consistent
        checks.append(lower_fields(b, fields, fn))
    z_out = value_wire(c.outputs[0])
    return checks, z_out


def _proof_inputs(v: VerifierCircuit) -> int:
    return v.circuit.num_inputs + size(v.circuit)


def synth_co_sac(v: VerifierCircuit) -> Circuit:
    """w_i = x_i AND (all gates consistent) AND (claimed output is 1)."""
    b = CircuitBuilder(_proof_inputs(v))
    checks, z_out = _gate_checks(b, v, want_consistent=True)
    big = b.and_tree_f(checks + [z_out])
    b.set_outputs([b.and_f(b.input(i), big) for i in range(v.num_x)])
    return b.build()


def synth_sac(v: VerifierCircuit) -> Circuit:
    """w_i = x_i OR (some gate inconsistent) OR (claimed output is 0)."""
    b = CircuitBuilder(_proof_inputs(v))
    checks, z_out = _gate_checks(b, v, want_consistent=False)
    big = b.or_tree_f(checks + [b.not_f(z_out)])
    b.set_outputs([b.or_f(b.input(i), big) for i in range(v.num_x)])
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
    xs = [b.input(i) for i in range(n)]
    ys = [b.input(n + i) for i in range(v.num_y)]
    core = b.append_circuit(v.circuit, xs[1 : n - 1] + ys)[0]
    framed = b.and_tree_f([xs[0], b.not_f(xs[-1]), core])
    all0 = b.and_tree_f([b.not_f(x) for x in xs])
    all1 = b.and_tree_f(xs)
    b.set_outputs([b.or_tree_f([framed, all0, all1])])
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
    from .regular import WitnessError

    x = _as_bits(x, what="x")
    if len(x) != v.num_x:
        raise WitnessError(f"x must have length {v.num_x}")
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
