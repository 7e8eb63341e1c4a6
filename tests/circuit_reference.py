"""Per-gate reference implementations of the circuit core.

These are the straightforward gate-by-gate loops that the levelized kernels,
the whole-array structural check, the syntax-only parser and the reducing
builder in ``rangesynth.circuit`` replaced: evaluation, depth, alternations,
the structural rules, a parser that checks each gate line as it reads it, the
line-by-line text reader and writer that the whole-array ``parse`` and
``serialize`` replaced, the verifier reader that re-joins the text around
``parse``, a build that keeps every emitted gate, a per-gate
``append_circuit``, the truth-table lowering that writes one full minterm
per true row, the per-gate replay of a lowered table that the table stamps
replaced, the row-index enumeration of every input, the cone sweep that
first finds the gates the outputs read, and the frontier walk over fan-out
lists that found gate levels before the block-by-block scan in id order
(with the level schedule built from it on an int64 sort key).
They are slow but obviously follow the definitions in the circuit module
docstring, so the differential tests compare the fast paths against them.
"""

from array import array

import numpy as np

from rangesynth.circuit import (
    _KIND_NAMES, _NAME_TO_KIND, AND, CONST, INPUT, MAX_INPUTS, NOT, OR, Circuit,
    CircuitError, InputArityError, ParseError, StructureError, _field_values,
    _Schedule, _table_bytes, _template, parse,
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


def gate_levels_reference(kinds, a0, a1) -> np.ndarray:
    """Level of every gate by a frontier walk over the fan-out lists.

    A gate joins the frontier once its last operand has been levelled, so
    each fan-in edge is visited once; the walk takes one round per level.
    """
    n = len(kinds)
    logic = np.flatnonzero(kinds >= NOT)
    binary = np.flatnonzero(kinds >= AND)
    readers = np.concatenate([logic, binary])
    operands = np.concatenate([a0[logic], a1[binary]])
    waiting = np.bincount(readers, minlength=n)  # operands not yet levelled
    readers = readers[np.argsort(operands, kind="stable")]
    # the readers of gate g are readers[first[g]:first[g + 1]]
    first = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(operands, minlength=n), out=first[1:])
    level = np.zeros(n, dtype=np.int32)
    frontier = np.flatnonzero(kinds < NOT)
    lvl = 0
    while frontier.size:
        lo = first[frontier]
        count = first[frontier + 1] - lo
        ends = np.cumsum(count)
        edges = np.arange(ends[-1]) + np.repeat(lo - ends + count, count)
        hit, times = np.unique(readers[edges], return_counts=True)
        waiting[hit] -= times
        frontier = hit[waiting[hit] == 0]
        lvl += 1
        level[frontier] = lvl
    return level


def level_schedule_reference(kinds, a0, a1) -> _Schedule:
    """The level schedule from :func:`gate_levels_reference`, its (level,
    kind) key sorted as int64."""
    n = len(kinds)
    level = gate_levels_reference(kinds, a0, a1)
    key = level.astype(np.int64) * 5 + kinds
    order = np.argsort(key, kind="stable")
    slot = np.empty(n, dtype=np.int64)
    slot[order] = np.arange(n)
    sorted_kinds = kinds[order]
    src0 = a0[order]
    logic = sorted_kinds >= NOT
    src0[logic] = slot[src0[logic]]
    src1 = np.zeros(n, dtype=np.int64)
    binary = sorted_kinds >= AND
    src1[binary] = slot[a1[order[binary]]]
    ends = np.cumsum(np.bincount(key, minlength=5)).tolist()
    groups = [
        (j % 5, ends[j - 1], ends[j])
        for j in range(5, len(ends)) if ends[j] > ends[j - 1]
    ]
    return _Schedule(level, slot, src0, src1, ends[INPUT], ends[CONST], groups)


def all_inputs_reference(m: int, chunk: int = 1 << 16):
    """Yield every length-m input vector in numeric order, in chunks: bit i
    of the row index is input i."""
    total = 1 << m
    shifts = np.arange(m, dtype=np.uint64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        yield ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def cone_sizes_reference(c) -> list:
    """Per-output cone sizes: a DFS from the outputs finds the gates they
    read, and only those get a cone, in id order, memoized in a dict."""
    kinds, a0, a1 = c.kinds, c.arg0, c.arg1
    needed = set(c.outputs)
    stack = list(c.outputs)
    while stack:
        g = stack.pop()
        k = kinds[g]
        srcs = (a0[g], a1[g]) if k >= AND else (a0[g],) if k == NOT else ()
        for s in srcs:
            if s not in needed:
                needed.add(s)
                stack.append(s)
    cones = {}
    for g in sorted(needed):
        k = kinds[g]
        if k == INPUT:
            cones[g] = frozenset((a0[g],))
        elif k == CONST:
            cones[g] = frozenset()
        elif k == NOT:
            cones[g] = cones[a0[g]]
        else:
            cones[g] = cones[a0[g]] | cones[a1[g]]
    return [len(cones[o]) for o in c.outputs]


def build_reference(b) -> Circuit:
    """A builder's gates exactly as emitted: nothing merged, nothing swept."""
    return Circuit(b.num_inputs, b.kinds, b.arg0, b.arg1, b.outputs,
                   _validated=True)


def append_circuit_reference(b, other, input_wires) -> list:
    """Inline ``other`` into builder ``b`` one gate at a time."""
    if len(input_wires) != other.num_inputs:
        raise InputArityError(
            f"expected {other.num_inputs} input wires, got {len(input_wires)}"
        )
    remap = [0] * other.num_gates
    kinds, a0, a1 = other.kinds, other.arg0, other.arg1
    for i in range(other.num_gates):
        k = kinds[i]
        if k == INPUT:
            remap[i] = input_wires[a0[i]]
        elif k == CONST:
            remap[i] = b.const(a0[i])
        elif k == NOT:
            remap[i] = b.not_(remap[a0[i]])
        elif k == AND:
            remap[i] = b.and_(remap[a0[i]], remap[a1[i]])
        else:
            remap[i] = b.or_(remap[a0[i]], remap[a1[i]])
    return [remap[o] for o in other.outputs]


def validate_reference(c) -> None:
    """The structural rules, one gate at a time; raises StructureError."""
    if not 0 <= c.num_inputs <= MAX_INPUTS:
        raise StructureError(f"num_inputs must be in 0..{MAX_INPUTS}")
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


def parse_verifier_reference(text: str):
    """``(circuit, num_x, num_y)`` of a verifier text: the first line whose
    first token is ``split`` is deleted from the text's lines, and the rest,
    re-joined with newlines, is parsed, so errors past the split line name
    the line after theirs."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        toks = line.split()
        if toks and toks[0] == "split":
            if len(toks) != 3:
                raise ParseError("split line needs two integers", i + 1)
            try:
                num_x, num_y = int(toks[1]), int(toks[2])
            except ValueError:
                raise ParseError("split line needs two integers", i + 1) from None
            del lines[i]
            return parse("\n".join(lines) + "\n"), num_x, num_y
    raise ParseError("missing 'split <n> <p>' header line")


def serialize_reference(c) -> str:
    """The text format, one f-string per gate line."""
    lines = [f"circuit {c.num_inputs} {c.num_gates} {len(c.outputs)}"]
    for i in range(c.num_gates):
        k = c.kinds[i]
        if k in (AND, OR):
            lines.append(f"{i} {_KIND_NAMES[k]} {c.arg0[i]} {c.arg1[i]}")
        else:
            lines.append(f"{i} {_KIND_NAMES[k]} {c.arg0[i]}")
    lines.append(("outputs " + " ".join(str(o) for o in c.outputs)).rstrip())
    return "\n".join(lines) + "\n"


def parse_lines_reference(text: str):
    """The text format read line by line, syntax only; the structure is left
    to :class:`Circuit`, whose fault is re-raised naming its line."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty circuit text")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "circuit":
        raise ParseError("expected 'circuit <inputs> <gates> <outputs>'", 1)
    try:
        num_inputs, num_gates, num_outputs = map(int, head[1:])
    except ValueError:
        raise ParseError("non-integer header field", 1) from None
    if len(lines) != num_gates + 2:
        raise ParseError(
            f"expected {num_gates} gate lines plus outputs, got {len(lines) - 2}"
        )
    kinds, arg0, arg1 = array("b"), array("q"), array("q")
    for gid, line in enumerate(lines[1:-1]):
        toks = line.split()
        kind = _NAME_TO_KIND.get(toks[1]) if len(toks) > 1 else None
        if kind is None:
            raise ParseError(f"expected '<id> <kind> <operands>', kind one of "
                             f"{', '.join(_KIND_NAMES)}", gid + 2)
        binary = kind >= AND
        if len(toks) != 3 + binary:
            raise ParseError(f"{toks[1]} takes {1 + binary} operand(s)", gid + 2)
        try:
            idx = int(toks[0])
            arg0.append(int(toks[2]))
            arg1.append(int(toks[3]) if binary else 0)
        except (ValueError, OverflowError):
            raise ParseError("gate id and operands must be 64-bit integers",
                             gid + 2) from None
        if idx != gid:
            raise ParseError(f"expected gate id {gid}, got {idx}", gid + 2)
        kinds.append(kind)
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
    try:
        return Circuit(num_inputs, kinds, arg0, arg1, outputs)
    except StructureError as exc:
        line = (exc.gate + 2 if exc.gate is not None
                else 1 if not 0 <= num_inputs <= MAX_INPUTS else len(lines))
        raise StructureError(f"line {line}: {exc}") from None


def table_to_subcircuit_reference(builder, table, wires) -> int:
    """A truth table as a minterm DNF: one balanced AND tree of all k literals
    per true row, joined by a balanced OR tree; a constant table is a CONST."""
    k = len(wires)
    if len(table) != 1 << k:
        raise CircuitError(f"table needs {1 << k} entries, got {len(table)}")
    true_rows = [r for r in range(1 << k) if table[r]]
    if not true_rows:
        return builder.const(0)
    if len(true_rows) == 1 << k:
        return builder.const(1)
    terms = []
    for r in true_rows:
        lits = [
            wires[i] if (r >> i) & 1 else builder.not_(wires[i])
            for i in range(k)
        ]
        terms.append(builder.and_tree(lits))
    return builder.or_tree(terms)


def table_to_subcircuit_replay(builder, table, wires) -> int:
    """``table_to_subcircuit`` one gate at a time: the table's template
    (``circuit._template``) replayed on ``wires``, each literal's NOT from
    ``builder.not_`` and each AND/OR through ``builder.gate``, unfolded."""
    k = len(wires)
    gates, root = _template(k, _table_bytes(table, k))
    leaf = [None, None] + list(wires) + [None] * k  # _record's columns

    def wire(op: int) -> int:
        if op >= 0:
            return ids[op]
        c = -1 - op
        if leaf[c] is None:
            leaf[c] = builder.const(c) if c < 2 else builder.not_(wires[c - 2 - k])
        return leaf[c]

    ids = []
    for kind, a, b in gates:
        ids.append(builder.not_(wire(a)) if kind == NOT
                   else builder.gate(kind, wire(a), wire(b)))
    return wire(root)


def lower_fields_replay(builder, fields, fn) -> int:
    """``lower_fields`` of one predicate through
    :func:`table_to_subcircuit_replay`."""
    wires_lsb, widths = [], []
    for ws, nv in fields:
        wires_lsb.extend(reversed(list(ws)))
        widths.append((len(ws), nv))
    return table_to_subcircuit_replay(builder, fn(*_field_values(tuple(widths))), wires_lsb)
