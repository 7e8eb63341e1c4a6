"""Per-gate table builds: the NP proof systems and the selector combinators.

These are :mod:`rangesynth.npsys`'s gate checks and the ``union``,
``concat_finite`` and ``finite_language`` selectors as they were before each
stamped its truth tables in one ``stamp_tables`` call: one table per verifier
gate, choice or output column, replayed gate by gate through
``circuit_reference.lower_fields_replay``.  The stamped builds must give the
same circuits up to gate numbering (``tests/structure.py``), except on
verifiers with CONST gates, where the replay leaves AND/OR gates reading a
constant and the stamped build folds them.
"""

import numpy as np

from rangesynth.circuit import AND, CONST, INPUT, NOT, CircuitBuilder, bits_for
from rangesynth.combinators import _word_bits
from rangesynth.npsys import _proof_inputs, pad_verifier
from tests.circuit_reference import lower_fields_replay as lower_fields


def _gate_checks(b, v, want_consistent: bool):
    """(check wires, z_out, x wires); proof bits get INPUT gates as first
    asked for."""
    c = v.circuit
    nxy = c.num_inputs
    z_index = {}
    for g in range(c.num_gates):
        if c.kinds[g] >= NOT:
            z_index[g] = len(z_index)
    wires = {}  # proof bit -> its one INPUT gate

    def proof_bit(i: int) -> int:
        if i not in wires:
            wires[i] = b.input(i)
        return wires[i]

    def value_wire(g: int) -> int:
        k = c.kinds[g]
        if k == INPUT:
            return proof_bit(c.arg0[g])
        if k == CONST:
            return b.const(c.arg0[g])
        return proof_bit(nxy + z_index[g])

    checks = []
    for g, zi in z_index.items():
        k = c.kinds[g]
        zg = proof_bit(nxy + zi)
        if k == NOT:
            fields = [([value_wire(c.arg0[g])], None), ([zg], None)]
            fn = lambda a, z: (z == 1 - a) == want_consistent
        else:
            op = (lambda a, bb: a & bb) if k == AND else (lambda a, bb: a | bb)
            fields = [([value_wire(c.arg0[g])], None), ([value_wire(c.arg1[g])], None),
                      ([zg], None)]
            fn = lambda a, bb, z, op=op: (z == op(a, bb)) == want_consistent
        checks.append(lower_fields(b, fields, fn))
    z_out = value_wire(c.outputs[0])
    return checks, z_out, [proof_bit(i) for i in range(v.num_x)]


def synth_co_sac(v):
    b = CircuitBuilder(_proof_inputs(v))
    checks, z_out, xs = _gate_checks(b, v, want_consistent=True)
    big = b.and_tree(checks + [z_out])
    b.set_outputs([b.and_(x, big) for x in xs])
    return b.build()


def synth_sac(v):
    b = CircuitBuilder(_proof_inputs(v))
    checks, z_out, xs = _gate_checks(b, v, want_consistent=False)
    big = b.or_tree(checks + [b.not_(z_out)])
    b.set_outputs([b.or_(x, big) for x in xs])
    return b.build()


def pad_language(v, n: int):
    padded = pad_verifier(v, n)
    return synth_sac(padded), synth_co_sac(padded)


def union(circuits):
    circuits = list(circuits)
    n, k = len(circuits[0].outputs), len(circuits)
    sel_bits = bits_for(k)
    b = CircuitBuilder(sel_bits + sum(c.num_inputs for c in circuits))
    sel = b.inputs(0, sel_bits)
    ind = [lower_fields(b, [(sel, k)], lambda v, i=i: v == i) for i in range(k)]
    branch_outs = []
    off = sel_bits
    for c in circuits:
        branch_outs.append(b.append_circuit(c, b.inputs(off, c.num_inputs)))
        off += c.num_inputs
    b.set_outputs([b.or_tree([b.and_(ind[i], branch_outs[i][j]) for i in range(k)])
                   for j in range(n)])
    return b.build()


def concat_finite(words, c, side: str = "left"):
    words = [_word_bits(w) for w in words]
    s = len(words)
    sel_bits = bits_for(s)
    b = CircuitBuilder(sel_bits + c.num_inputs)
    sel = b.inputs(0, sel_bits)
    cols = np.array(words, dtype=np.uint8).T
    word_outs = [lower_fields(b, [(sel, s)], col.__getitem__) for col in cols]
    inner = b.append_circuit(c, b.inputs(sel_bits, c.num_inputs))
    b.set_outputs(word_outs + inner if side == "left" else inner + word_outs)
    return b.build()


def finite_language(words):
    words = sorted(set(tuple(_word_bits(w)) for w in words))
    s = len(words)
    sel_bits = bits_for(s)
    b = CircuitBuilder(sel_bits)
    sel = b.inputs(0, sel_bits)
    cols = np.array(words, dtype=np.uint8).T
    b.set_outputs([lower_fields(b, [(sel, s)], col.__getitem__) for col in cols])
    return b.build()
