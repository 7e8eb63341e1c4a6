"""Per-gate reference implementations of the circuit core.

These are the straightforward gate-by-gate loops that the levelized kernels,
the whole-array structural check and the syntax-only parser in
``rangesynth.circuit`` replaced: evaluation, depth, alternations, the
structural rules, and a parser that checks each gate line as it reads it.
They are slow but obviously follow the definitions in the circuit module
docstring, so the differential tests compare the fast paths against them.
"""

from array import array

import numpy as np

from rangesynth.circuit import (
    _NAME_TO_KIND, AND, CONST, INPUT, NOT, OR, Circuit, ParseError, StructureError,
)


def eval_reference(c, X) -> np.ndarray:
    """(N, num_inputs) bits -> (N, num_outputs) bits, one gate at a time."""
    X = np.asarray(X, dtype=np.uint8)
    kinds, a0, a1 = c.kinds, c.arg0, c.arg1
    vals = [None] * c.num_gates
    for i in range(c.num_gates):
        k = kinds[i]
        if k == AND:
            vals[i] = vals[a0[i]] & vals[a1[i]]
        elif k == OR:
            vals[i] = vals[a0[i]] | vals[a1[i]]
        elif k == NOT:
            vals[i] = 1 - vals[a0[i]]
        elif k == INPUT:
            vals[i] = X[:, a0[i]]
        else:
            vals[i] = np.full(len(X), a0[i], dtype=np.uint8)
    out = np.empty((len(X), len(c.outputs)), dtype=np.uint8)
    for col, o in enumerate(c.outputs):
        out[:, col] = vals[o]
    return out


def depth_reference(c) -> int:
    kinds, a0, a1 = c.kinds, c.arg0, c.arg1
    d = [0] * c.num_gates
    for i in range(c.num_gates):
        k = kinds[i]
        if k == NOT:
            d[i] = d[a0[i]] + 1
        elif k in (AND, OR):
            d[i] = max(d[a0[i]], d[a1[i]]) + 1
    return max((d[o] for o in c.outputs), default=0)


def alternations_reference(c) -> int:
    # blocks[i][pol] / types[i][pol]: max count of maximal AND/OR blocks on a
    # path ending at gate i when the gate is observed in polarity pol
    # (0 positive, 1 negated), plus the type the path currently ends in
    # (0 none, 1 AND, 2 OR).
    kinds, a0, a1 = c.kinds, c.arg0, c.arg1
    blocks = [[0, 0] for _ in range(c.num_gates)]
    types = [[0, 0] for _ in range(c.num_gates)]
    for i in range(c.num_gates):
        k = kinds[i]
        if k == NOT:
            s = a0[i]
            blocks[i] = blocks[s][::-1]
            types[i] = types[s][::-1]
        elif k in (AND, OR):
            for pol in (0, 1):
                t = 1 if (k == AND) == (pol == 0) else 2
                best = 1
                for s in (a0[i], a1[i]):
                    sb, st = blocks[s][pol], types[s][pol]
                    best = max(best, sb if st == t else sb + 1)
                blocks[i][pol] = best
                types[i][pol] = t
    return max((blocks[o][0] for o in c.outputs), default=0)



def validate_reference(c) -> None:
    """The structural rules, one gate at a time; raises StructureError."""
    if c.num_inputs < 0:
        raise StructureError("num_inputs must be non-negative")
    n = len(c.kinds)
    if not (len(c.arg0) == len(c.arg1) == n):
        raise StructureError("gate arrays must have equal length")
    for i in range(n):
        k = c.kinds[i]
        a, b = c.arg0[i], c.arg1[i]
        if k == INPUT:
            if not (0 <= a < c.num_inputs):
                raise StructureError(f"input index {a} out of range", i)
        elif k == CONST:
            if a not in (0, 1):
                raise StructureError(f"const value {a} not a bit", i)
        elif k == NOT:
            if not (0 <= a < i):
                raise StructureError(f"operand {a} not earlier gate", i)
        elif k in (AND, OR):
            if not (0 <= a < i and 0 <= b < i):
                raise StructureError(f"operands ({a},{b}) not earlier gates", i)
        else:
            raise StructureError(f"unknown kind {k}", i)
    for o in c.outputs:
        if not (0 <= o < n):
            raise StructureError(f"output id {o} does not exist")


def parse_reference(text: str):
    """The text format, with every structural rule but the input count
    checked line by line while reading (``num_inputs`` may be negative)."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty circuit text")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "circuit":
        raise ParseError("expected 'circuit <inputs> <gates> <outputs>'", 1)
    try:
        num_inputs, num_gates, num_outputs = (int(t) for t in head[1:])
    except ValueError:
        raise ParseError("non-integer header field", 1) from None
    if len(lines) != num_gates + 2:
        raise ParseError(
            f"expected {num_gates} gate lines plus outputs, got {len(lines) - 2}"
        )
    kinds = array("b")
    arg0 = array("q")
    arg1 = array("q")
    for gid in range(num_gates):
        lineno = gid + 2
        toks = lines[gid + 1].split()
        if len(toks) < 3:
            raise ParseError("too few fields", lineno)
        try:
            idx = int(toks[0])
        except ValueError:
            raise ParseError("non-integer gate id", lineno) from None
        if idx != gid:
            raise ParseError(f"expected gate id {gid}, got {idx}", lineno)
        kind = _NAME_TO_KIND.get(toks[1])
        if kind is None:
            raise ParseError(f"unknown gate kind {toks[1]!r}", lineno)
        want = 2 if kind in (AND, OR) else 1
        args = toks[2:]
        if len(args) != want:
            raise ParseError(f"{toks[1]} takes {want} operand(s)", lineno)
        try:
            vals = [int(t) for t in args]
        except ValueError:
            raise ParseError("non-integer operand", lineno) from None
        if kind == INPUT:
            if not (0 <= vals[0] < num_inputs):
                raise ParseError(f"input index {vals[0]} out of range", lineno)
        elif kind == CONST:
            if vals[0] not in (0, 1):
                raise ParseError(f"const value {vals[0]} not a bit", lineno)
        else:
            for v in vals:
                if not (0 <= v < gid):
                    raise StructureError(
                        f"line {lineno}: operand {v} is not an earlier gate"
                    )
        kinds.append(kind)
        arg0.append(vals[0])
        arg1.append(vals[1] if len(vals) > 1 else 0)
    out_toks = lines[-1].split()
    if not out_toks or out_toks[0] != "outputs":
        raise ParseError("expected final 'outputs' line", len(lines))
    try:
        outputs = [int(t) for t in out_toks[1:]]
    except ValueError:
        raise ParseError("non-integer output id", len(lines)) from None
    if len(outputs) != num_outputs:
        raise ParseError(
            f"header promised {num_outputs} outputs, got {len(outputs)}", len(lines)
        )
    for o in outputs:
        if not (0 <= o < num_gates):
            raise StructureError(f"output id {o} does not exist")
    return Circuit(num_inputs, kinds, arg0, arg1, outputs, _validated=True)
