"""Closure combinators on proof-system circuits.

Each operation takes circuits whose ranges are the operand languages and
returns a circuit whose range is the combined language.  Selector encodings
with more patterns than choices clamp high values to the last choice, so
every proof input stays inside the range (the range of a circuit can never
be empty, and neither can any language built here).
"""

from __future__ import annotations

import numpy as np

from .circuit import (
    OR, Circuit, CircuitBuilder, InputArityError, _as_bits, bits_for,
    lower_fields,
)
from .languages import LanguageError

__all__ = [
    "union",
    "concat_finite",
    "reverse",
    "morphism",
    "inverse_morphism",
    "upclose",
    "finite_language",
]


def _word_bits(word) -> list:
    return _as_bits(word, (None,), f"word {word!r}", LanguageError).tolist()


def union(circuits) -> Circuit:
    """Range = union of the operand ranges; selector bits pick the branch."""
    circuits = list(circuits)
    if not circuits:
        raise LanguageError("union needs at least one circuit")
    n = len(circuits[0].outputs)
    if any(len(c.outputs) != n for c in circuits):
        raise InputArityError("union operands must have equal output lengths")
    k = len(circuits)
    sel_bits = bits_for(k)
    b = CircuitBuilder(sel_bits + sum(c.num_inputs for c in circuits))
    sel = b.inputs(0, sel_bits)  # MSB first; k or more picks the last
    ind = lower_fields(b, [(sel, k)], lambda v: v == np.arange(k)[:, None]).tolist()
    branch_outs = []
    off = sel_bits
    for c in circuits:
        wires = b.inputs(off, c.num_inputs)
        branch_outs.append(b.append_circuit(c, wires))
        off += c.num_inputs
    outs = [
        b.or_tree([b.and_(ind[i], branch_outs[i][j]) for i in range(k)])
        for j in range(n)
    ]
    b.set_outputs(outs)
    return b.build()


def concat_finite(words, c: Circuit, side: str = "left") -> Circuit:
    """Range = S . range(c) (side=left) or range(c) . S (side=right)."""
    words = [_word_bits(w) for w in words]
    if not words:
        raise LanguageError("concatenation set must be nonempty")
    k = len(words[0])
    if any(len(w) != k for w in words):
        raise LanguageError("concatenation set words must share a length")
    if side not in ("left", "right"):
        raise LanguageError(f"side must be left or right, not {side!r}")
    s = len(words)
    sel_bits = bits_for(s)
    b = CircuitBuilder(sel_bits + c.num_inputs)
    sel = b.inputs(0, sel_bits)
    cols = np.array(words, dtype=np.uint8).T  # cols[j][v]: bit j of word v
    word_outs = lower_fields(b, [(sel, s)], lambda v: cols[:, v]).tolist()
    inner = b.append_circuit(c, b.inputs(sel_bits, c.num_inputs))
    b.set_outputs(word_outs + inner if side == "left" else inner + word_outs)
    return b.build()


def reverse(c: Circuit) -> Circuit:
    """Range = reversed words of range(c)."""
    b = CircuitBuilder(c.num_inputs)
    outs = b.append_circuit(c, b.inputs(0, c.num_inputs))
    b.set_outputs(outs[::-1])
    return b.build()


def morphism(h0, h1, c: Circuit) -> Circuit:
    """Apply the fixed-length morphism 0 -> h0, 1 -> h1 to every output bit."""
    h0, h1 = _word_bits(h0), _word_bits(h1)
    if len(h0) != len(h1) or not h0:
        raise LanguageError("morphism images must share a positive length")
    b = CircuitBuilder(c.num_inputs)
    inner = b.append_circuit(c, b.inputs(0, c.num_inputs))
    outs = []
    for o in inner:
        for bit0, bit1 in zip(h0, h1):
            if bit0 == bit1:
                outs.append(b.const(bit0))
            elif bit1 == 1:
                outs.append(o)
            else:
                outs.append(b.not_(o))
    b.set_outputs(outs)
    return b.build()


def inverse_morphism(h0, h1, c: Circuit) -> Circuit:
    """Range = h^{-1}(range(c)) for blockwise h; see the declared precondition.

    Every word in range(c) must consist of blocks from {h0, h1}; the
    verification harness checks this contract at desk scale.  When h0 == h1
    a preimage bit is free, so one choice bit per block is added; otherwise
    the preimage is read off the first position where the images differ.
    """
    h0, h1 = _word_bits(h0), _word_bits(h1)
    if len(h0) != len(h1) or not h0:
        raise LanguageError("morphism images must share a positive length")
    k = len(h0)
    n_out = len(c.outputs)
    if n_out % k:
        raise InputArityError(
            f"output length {n_out} is not a multiple of block length {k}"
        )
    blocks = n_out // k
    ambiguous = h0 == h1
    b = CircuitBuilder(c.num_inputs + (blocks if ambiguous else 0))
    inner = b.append_circuit(c, b.inputs(0, c.num_inputs))
    outs = []
    if ambiguous:
        outs = b.inputs(c.num_inputs, blocks)
    else:
        d = next(i for i in range(k) if h0[i] != h1[i])
        for j in range(blocks):
            wire = inner[j * k + d]
            outs.append(wire if h1[d] == 1 else b.not_(wire))
    b.set_outputs(outs)
    return b.build()


def upclose(c: Circuit) -> Circuit:
    """Range = upward closure of range(c) under bitwise domination.

    Adds one mask bit per output and ORs it in with a real gate per output,
    so the metrics move by exactly +1 depth and +n size.
    """
    n = len(c.outputs)
    b = CircuitBuilder(c.num_inputs + n)
    inner = b.append_circuit(c, b.inputs(0, c.num_inputs))
    b.set_outputs([
        b.gate(OR, o, b.input(c.num_inputs + i)) for i, o in enumerate(inner)
    ])
    return b.build()


def finite_language(words) -> Circuit:
    """Range = exactly the given nonempty set of equal-length words."""
    words = [_word_bits(w) for w in words]
    if not words:
        raise LanguageError("finite language must be nonempty")
    n = len(words[0])
    if any(len(w) != n for w in words):
        raise LanguageError("finite language words must share a length")
    words = sorted(set(tuple(w) for w in words))
    s = len(words)
    sel_bits = bits_for(s)
    b = CircuitBuilder(sel_bits)
    sel = b.inputs(0, sel_bits)
    cols = np.array(words, dtype=np.uint8).T  # cols[j][v]: bit j of word v
    b.set_outputs(lower_fields(b, [(sel, s)], lambda v: cols[:, v]).tolist())
    return b.build()
