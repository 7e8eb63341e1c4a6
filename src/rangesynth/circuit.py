"""Bounded-fanin boolean circuits.

A circuit is a DAG of INPUT / CONST / NOT / AND / OR gates with dense ids in
topological order (operands always have smaller ids than the gate that reads
them) and an ordered list of output gate ids.  Circuits are immutable after
construction and safe to share across threads read-only; evaluation keeps its
scratch state local to the call.  Evaluation and the depth / alternation
sweeps share one lazily built level schedule per circuit (see
``_level_schedule``).

Conventions (documented because the choice matters to the metrics):

* depth: INPUT and CONST gates have depth 0, every NOT/AND/OR adds 1.
* size: number of logic gates (NOT/AND/OR); INPUT and CONST gates are free.
* alternations: maximum number of maximal same-type AND/OR blocks on any
  input-to-output path, counted on the negation-pushed-to-leaves view (a NOT
  between two ANDs makes them count as an AND/OR switch).  A pure AND tree
  has one alternation; a bare wire has zero.
* cone: the set of distinct INPUT gates an output transitively reads.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

INPUT, CONST, NOT, AND, OR = range(5)

_KIND_NAMES = ("INPUT", "CONST", "NOT", "AND", "OR")
_NAME_TO_KIND = {name: kind for kind, name in enumerate(_KIND_NAMES)}
# what a gate of each kind got wrong, given its kind k and operands a, b
_FAULTS = {
    INPUT: "input index {a} out of range",
    CONST: "const value {a} not a bit",
    NOT: "operand {a} not an earlier gate",
    AND: "operands ({a},{b}) not earlier gates",
    OR: "operands ({a},{b}) not earlier gates",
}


class CircuitError(ValueError):
    """Base class for circuit construction / use errors."""


class InputArityError(CircuitError):
    """Evaluation input vector length does not match num_inputs."""


class InputBitError(InputArityError):
    """Evaluation input holds an entry other than 0 or 1."""


class StructureError(CircuitError):
    """Topological-order or reference invariant violated; ``gate`` is the
    first offending gate, or None for the input count, lengths or outputs."""

    def __init__(self, message: str, gate: int | None = None):
        self.gate = gate
        if gate is not None:
            message = f"gate {gate}: {message}"
        super().__init__(message)


class ParseError(CircuitError):
    """Malformed circuit text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Circuit:
    """Immutable gate list plus designated outputs.

    Gates are stored as parallel arrays (kind, a, b) so that multi-million
    gate circuits stay cheap.
    """

    __slots__ = ("num_inputs", "kinds", "arg0", "arg1", "outputs", "_np_cache",
                 "_sched")

    def __init__(self, num_inputs, kinds, arg0, arg1, outputs, _validated=False):
        self.num_inputs = int(num_inputs)
        self.kinds = kinds if isinstance(kinds, array) else array("b", kinds)
        self.arg0 = arg0 if isinstance(arg0, array) else array("q", arg0)
        self.arg1 = arg1 if isinstance(arg1, array) else array("q", arg1)
        self.outputs = list(outputs)
        self._np_cache = None
        self._sched = None
        if not _validated:
            self._validate()

    # -- basic structure ---------------------------------------------------

    @property
    def num_gates(self) -> int:
        return len(self.kinds)

    def _validate(self):
        """Check every structural rule with whole-array masks.

        A fault raises :class:`StructureError` naming the first bad gate.
        """
        if self.num_inputs < 0:
            raise StructureError(f"num_inputs {self.num_inputs} is negative")
        n = len(self.kinds)
        if not (len(self.arg0) == len(self.arg1) == n):
            raise StructureError("gate arrays must have equal length")
        kinds, a0, a1 = self._arrays()
        ids = np.arange(n)
        bad = (kinds < INPUT) | (kinds > OR) | (a0 < 0)
        bad |= (kinds == INPUT) & (a0 >= self.num_inputs)
        bad |= (kinds == CONST) & (a0 > 1)
        bad |= (kinds >= NOT) & (a0 >= ids)
        bad |= (kinds >= AND) & ((a1 < 0) | (a1 >= ids))
        if bad.any():
            i = int(bad.argmax())
            k, a, b = self.kinds[i], self.arg0[i], self.arg1[i]
            fault = _FAULTS.get(k, "unknown kind {k}")
            raise StructureError(fault.format(k=k, a=a, b=b), i)
        for o in self.outputs:
            if not (0 <= o < n):
                raise StructureError(f"output id {o} does not exist")

    def _arrays(self):
        if self._np_cache is None:
            self._np_cache = (
                np.frombuffer(self.kinds, dtype=np.int8),
                np.frombuffer(self.arg0, dtype=np.int64),
                np.frombuffer(self.arg1, dtype=np.int64),
            )
        return self._np_cache

    def _schedule(self) -> "_Schedule":
        if self._sched is None:
            self._sched = _level_schedule(*self._arrays())
        return self._sched

    def _with_outputs(self, outputs) -> "Circuit":
        """The same gates with other (existing) outputs, sharing the caches."""
        c = Circuit(self.num_inputs, self.kinds, self.arg0, self.arg1, outputs,
                    _validated=True)
        c._np_cache, c._sched = self._arrays(), self._schedule()
        return c

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self.num_inputs == other.num_inputs
            and self.kinds == other.kinds
            and self.arg0 == other.arg0
            and self.arg1 == other.arg1
            and self.outputs == other.outputs
        )

    def __repr__(self):
        return (
            f"Circuit(inputs={self.num_inputs}, gates={self.num_gates}, "
            f"outputs={len(self.outputs)})"
        )


class CircuitBuilder:
    """Append-only constructor for :class:`Circuit`.

    INPUT, CONST and NOT gates are deduplicated (they are pure and free to
    share); AND/OR gates are always emitted, so size accounting of the
    synthesized structure stays predictable.  The ``*_f`` variants fold
    constant operands at construction time and are used by synthesizers that
    can prove the fold exact.
    """

    def __init__(self, num_inputs: int):
        self.num_inputs = num_inputs
        self.kinds = array("b")
        self.arg0 = array("q")
        self.arg1 = array("q")
        self.outputs: list[int] = []
        self._input_ids: dict[int, int] = {}
        self._const_ids: dict[int, int] = {}
        self._not_ids: dict[int, int] = {}

    def _emit(self, kind: int, a: int, b: int = 0) -> int:
        gid = len(self.kinds)
        self.kinds.append(kind)
        self.arg0.append(a)
        self.arg1.append(b)
        return gid

    def input(self, index: int) -> int:
        if not (0 <= index < self.num_inputs):
            raise StructureError(f"input index {index} out of range")
        gid = self._input_ids.get(index)
        if gid is None:
            gid = self._input_ids[index] = self._emit(INPUT, index)
        return gid

    def const(self, bit: int) -> int:
        bit = int(bit)
        if bit not in (0, 1):
            raise StructureError("const must be 0 or 1")
        gid = self._const_ids.get(bit)
        if gid is None:
            gid = self._const_ids[bit] = self._emit(CONST, bit)
        return gid

    def not_(self, a: int) -> int:
        gid = self._not_ids.get(a)
        if gid is None:
            gid = self._not_ids[a] = self._emit(NOT, a)
        return gid

    def and_(self, a: int, b: int) -> int:
        return self._emit(AND, a, b)

    def or_(self, a: int, b: int) -> int:
        return self._emit(OR, a, b)

    # -- constant-folding variants ----------------------------------------

    def const_value(self, g: int) -> int | None:
        """Return the bit a gate is a CONST of, or None."""
        if self.kinds[g] == CONST:
            return self.arg0[g]
        return None

    def not_f(self, a: int) -> int:
        v = self.const_value(a)
        if v is not None:
            return self.const(1 - v)
        return self.not_(a)

    def and_f(self, a: int, b: int) -> int:
        va, vb = self.const_value(a), self.const_value(b)
        if va == 0 or vb == 0:
            return self.const(0)
        if va == 1:
            return b
        if vb == 1:
            return a
        return self._emit(AND, a, b)

    def or_f(self, a: int, b: int) -> int:
        va, vb = self.const_value(a), self.const_value(b)
        if va == 1 or vb == 1:
            return self.const(1)
        if va == 0:
            return b
        if vb == 0:
            return a
        return self._emit(OR, a, b)

    def xor_f(self, a: int, b: int) -> int:
        va, vb = self.const_value(a), self.const_value(b)
        if va is not None:
            return b if va == 0 else self.not_f(b)
        if vb is not None:
            return a if vb == 0 else self.not_f(a)
        return self.or_(self.and_(a, self.not_(b)), self.and_(self.not_(a), b))

    # -- balanced trees ----------------------------------------------------

    def _tree(self, op, wires: Sequence[int], empty: int) -> int:
        wires = list(wires)
        if not wires:
            return self.const(empty)
        while len(wires) > 1:
            wires = [
                op(wires[i], wires[i + 1]) if i + 1 < len(wires) else wires[i]
                for i in range(0, len(wires), 2)
            ]
        return wires[0]

    def _tree_f(self, op, wires: Sequence[int], empty: int) -> int:
        """_tree over the non-constant wires; a constant ``1 - empty`` absorbs."""
        kept = []
        for w in wires:
            v = self.const_value(w)
            if v == 1 - empty:
                return self.const(v)
            if v != empty:
                kept.append(w)
        return self._tree(op, kept, empty)

    def and_tree(self, wires: Sequence[int]) -> int:
        return self._tree(self.and_, wires, 1)

    def or_tree(self, wires: Sequence[int]) -> int:
        return self._tree(self.or_, wires, 0)

    def and_tree_f(self, wires: Sequence[int]) -> int:
        return self._tree_f(self.and_, wires, 1)

    def or_tree_f(self, wires: Sequence[int]) -> int:
        return self._tree_f(self.or_, wires, 0)

    def xor_tree(self, wires: Sequence[int]) -> int:
        return self._tree(self.xor_f, wires, 0)

    def set_outputs(self, outputs: Sequence[int]):
        self.outputs = list(outputs)

    def append_circuit(self, other: Circuit, input_wires: Sequence[int]) -> list[int]:
        """Inline another circuit, feeding its inputs from the given wires.

        Returns the wires carrying the other circuit's outputs.
        """
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
                remap[i] = self.const(a0[i])
            elif k == NOT:
                remap[i] = self.not_(remap[a0[i]])
            elif k == AND:
                remap[i] = self.and_(remap[a0[i]], remap[a1[i]])
            else:
                remap[i] = self.or_(remap[a0[i]], remap[a1[i]])
        return [remap[o] for o in other.outputs]

    def build(self) -> Circuit:
        return Circuit(
            self.num_inputs, self.kinds, self.arg0, self.arg1, self.outputs,
            _validated=True,
        )


def table_to_subcircuit(builder: CircuitBuilder, table: Sequence[int], wires: Sequence[int]) -> int:
    """Append a DNF subcircuit computing an arbitrary truth table.

    ``table`` has ``2**k`` entries where ``k = len(wires)``; row ``r`` gives
    the value when ``wires[i]`` carries bit ``(r >> i) & 1`` (wires[0] is the
    least significant index bit).  True rows become balanced AND trees of
    literals, joined by a balanced OR tree, so the local depth is at most
    ``ceil(log2 k) + ceil(log2 #true_rows) + 1``.  A constant table collapses
    to a CONST gate.
    """
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


def lower_fields(builder: CircuitBuilder, fields, fn) -> int:
    """Lower a predicate over small bit-encoded fields to a DNF subcircuit.

    ``fields`` is a list of ``(wires_msb_first, num_values)`` pairs; each
    field decodes to an integer, clamped to ``num_values - 1`` when
    ``num_values`` is given (the out-of-range-encoding convention).  ``fn``
    receives one decoded value per field and returns the predicate bit.
    """
    wires_lsb: list[int] = []
    widths: list[tuple[int, int | None]] = []
    for ws, nv in fields:
        wires_lsb.extend(reversed(list(ws)))
        widths.append((len(ws), nv))
    total = len(wires_lsb)
    table = []
    for row in range(1 << total):
        vals = []
        shift = 0
        for nbits, nv in widths:
            v = (row >> shift) & ((1 << nbits) - 1)
            shift += nbits
            if nv is not None and v >= nv:
                v = nv - 1
            vals.append(v)
        table.append(1 if fn(*vals) else 0)
    return table_to_subcircuit(builder, table, wires_lsb)


# ---------------------------------------------------------------------------
# level schedule
#
# Every sweep over a circuit (evaluation, depth, alternations) runs one level
# at a time: a gate's level is its depth, so its operands all sit in earlier
# levels and a whole level can be processed with one array operation per
# gate kind.  This is the word-parallel simulation style of AIG tools (see
# Brayton & Mishchenko, "ABC", CAV 2010).


class _Schedule(NamedTuple):
    """Gates regrouped by (level, kind), cached per circuit.

    Slots number the gates in that order, so each group is a contiguous slot
    range; operands are stored as slots too, and sweeps keep their per-gate
    state in slot order.
    """

    level: np.ndarray   # gate id -> level (read-only)
    slot: np.ndarray    # gate id -> slot
    src0: np.ndarray    # slot -> input index, const bit or operand slot
    src1: np.ndarray    # slot -> second operand slot for AND/OR, else 0
    inputs_end: int     # slots [0, inputs_end) hold the INPUT gates
    consts_end: int     # slots [inputs_end, consts_end) hold the CONST gates
    groups: list        # (kind, lo, hi) per nonempty logic group, by level


def _gate_levels(kinds, a0, a1) -> np.ndarray:
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


def _level_schedule(kinds, a0, a1) -> _Schedule:
    n = len(kinds)
    level = _gate_levels(kinds, a0, a1)
    level.flags.writeable = False
    key = level * 5 + kinds
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
    # ends[j]: end slot of the group with key j = 5 * level + kind
    ends = np.cumsum(np.bincount(key, minlength=5)).tolist()
    groups = [
        (j % 5, ends[j - 1], ends[j])
        for j in range(5, len(ends)) if ends[j] > ends[j - 1]
    ]
    return _Schedule(level, slot, src0, src1, ends[INPUT], ends[CONST], groups)


# ---------------------------------------------------------------------------
# evaluation

# Packed gate values held per chunk of rows; bounds eval_batch's memory.
_CHUNK_BYTES = 1 << 19
_ALL_ONES = np.uint64(2**64 - 1)
_BINARY_OPS = {AND: np.bitwise_and, OR: np.bitwise_or}


def _as_bits(x, length: int | None = None, what: str = "input") -> np.ndarray:
    """``x`` (a 0/1 string or array-like) as a uint8 array of bits.

    With ``length``, ``x`` must be one word of that length.  Any entry other
    than 0 or 1 raises :class:`InputBitError`.
    """
    if isinstance(x, str):
        bits = np.frombuffer(x.encode(), dtype=np.uint8) - np.uint8(ord("0"))
    else:
        bits = np.asarray(x)
    if length is not None and (bits.ndim != 1 or len(bits) != length):
        got = len(bits) if bits.ndim == 1 else f"shape {bits.shape}"
        raise InputArityError(f"{what} must have length {length}, got {got}")
    if bits.size and not (
        bits.max() <= 1 if bits.dtype == np.uint8
        else ((bits == 0) | (bits == 1)).all()
    ):
        raise InputBitError(f"{what} bits must be 0 or 1")
    return bits.astype(np.uint8, copy=False)


def eval_circuit(c: Circuit, x) -> list[int]:
    """Evaluate on a single input vector; returns the output bits."""
    return eval_batch(c, _as_bits(x, c.num_inputs)[None])[0].tolist()


def eval_batch(c: Circuit, X: np.ndarray) -> np.ndarray:
    """Evaluate many inputs at once.

    ``X`` is a (N, num_inputs) 0/1 array; returns (N, num_outputs) uint8.
    Rows are packed 64 to a machine word and evaluated level by level, in
    chunks of rows sized so the packed gate values stay near _CHUNK_BYTES.
    """
    X = _as_bits(X, what="batch")
    if X.ndim != 2 or X.shape[1] != c.num_inputs:
        raise InputArityError(
            f"batch must be (N, {c.num_inputs}), got {X.shape}"
        )
    s = c._schedule()
    out = np.empty((len(X), len(c.outputs)), dtype=np.uint8)
    out_slots = s.slot[c.outputs]
    rows = 64 * max(1, _CHUNK_BYTES // (8 * max(1, c.num_gates)))
    for start in range(0, len(X), rows):
        chunk = X[start : start + rows]
        r = len(chunk)
        words = -(-r // 64)
        packed = np.zeros((c.num_inputs, 8 * words), dtype=np.uint8)
        packed[:, : -(-r // 8)] = np.packbits(chunk.T, axis=1, bitorder="little")
        vals = np.empty((c.num_gates, words), dtype=np.uint64)
        vals[: s.inputs_end] = packed.view(np.uint64)[s.src0[: s.inputs_end]]
        const_bits = s.src0[s.inputs_end : s.consts_end]
        vals[s.inputs_end : s.consts_end] = np.where(const_bits == 1, _ALL_ONES, 0)[:, None]
        for kind, lo, hi in s.groups:
            a = vals[s.src0[lo:hi]]
            if kind == NOT:
                np.invert(a, out=vals[lo:hi])
            else:
                _BINARY_OPS[kind](a, vals[s.src1[lo:hi]], out=vals[lo:hi])
        bits = np.unpackbits(vals[out_slots].view(np.uint8), axis=1, count=r,
                             bitorder="little")
        out[start : start + r] = bits.T
    return out


def all_inputs(m: int, chunk: int = 1 << 16) -> Iterator[np.ndarray]:
    """Yield every length-m input vector in numeric order, in chunks.

    Bit i of the row index is input i, so rows come out in order of the
    integer whose LSB is input 0.
    """
    total = 1 << m
    shifts = np.arange(m, dtype=np.uint64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        yield ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def circuit_range(c: Circuit, budget: int = 1 << 24) -> set[bytes]:
    """Exhaustive range of the circuit as a set of packed output words."""
    if 1 << c.num_inputs > budget:
        raise CircuitError(
            f"range enumeration needs 2^{c.num_inputs} evaluations, over budget {budget}"
        )
    seen: set[bytes] = set()
    for X in all_inputs(c.num_inputs):
        Y = eval_batch(c, X)
        for row in np.unique(Y, axis=0):
            seen.add(row.tobytes())
    return seen


# ---------------------------------------------------------------------------
# metrics

# block type a gate opens when observed in polarity 0 / 1 (1 AND, 2 OR)
_BLOCK_TYPES = {AND: np.array([[1], [2]], dtype=np.int8),
                OR: np.array([[2], [1]], dtype=np.int8)}


def gate_depths(c: Circuit) -> np.ndarray:
    return c._schedule().level


def depth(c: Circuit) -> int:
    if not c.outputs:
        return 0
    return int(gate_depths(c)[c.outputs].max())


def size(c: Circuit) -> int:
    """Number of logic gates (NOT/AND/OR)."""
    kinds, _, _ = c._arrays()
    return int(np.count_nonzero(kinds >= NOT))


def alternations(c: Circuit) -> int:
    if not c.outputs:
        return 0
    s = c._schedule()
    # blocks[pol, slot] / types[pol, slot]: max count of maximal AND/OR blocks
    # on a path ending at the gate when it is observed in polarity pol
    # (0 positive, 1 negated), plus the type the path currently ends in
    # (0 none, 1 AND, 2 OR).  A NOT swaps the polarities.
    blocks = np.zeros((2, c.num_gates), dtype=np.int32)
    types = np.zeros((2, c.num_gates), dtype=np.int8)
    for kind, lo, hi in s.groups:
        a = s.src0[lo:hi]
        if kind == NOT:
            blocks[:, lo:hi] = blocks[::-1, a]
            types[:, lo:hi] = types[::-1, a]
            continue
        b = s.src1[lo:hi]
        t = _BLOCK_TYPES[kind]
        blocks[:, lo:hi] = np.maximum(blocks[:, a] + (types[:, a] != t),
                                      blocks[:, b] + (types[:, b] != t))
        types[:, lo:hi] = t
    return int(blocks[0, s.slot[c.outputs]].max())


def cone_sizes(c: Circuit) -> list[int]:
    """Per-output count of distinct reachable INPUT gates.

    Memoizes per-gate cones as sets; cost scales with the total cone mass,
    so this is meant for circuits with small cones (the NC0 families) or
    moderate overall size.
    """
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
    cones: dict[int, frozenset] = {}
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


@dataclass
class CircuitMetrics:
    depth: int
    size: int
    alternations: int
    cone_sizes: list[int]

    @property
    def max_cone(self) -> int:
        return max(self.cone_sizes) if self.cone_sizes else 0


def metrics(c: Circuit, with_cones: bool = True) -> CircuitMetrics:
    """Structural measurements; see module docstring for the conventions.

    ``with_cones=False`` skips the cone sweep, which is the only part whose
    cost can blow up on wide-cone circuits.
    """
    return CircuitMetrics(
        depth=depth(c),
        size=size(c),
        alternations=alternations(c),
        cone_sizes=cone_sizes(c) if with_cones else [],
    )


# ---------------------------------------------------------------------------
# text format
#
# circuit <num_inputs> <num_gates> <num_outputs>
# <id> INPUT <i> | <id> CONST <b> | <id> NOT <a> | <id> AND <a> <b> | <id> OR <a> <b>
# outputs <id...>


def serialize(c: Circuit) -> str:
    lines = [f"circuit {c.num_inputs} {c.num_gates} {len(c.outputs)}"]
    for i in range(c.num_gates):
        k = c.kinds[i]
        if k in (AND, OR):
            lines.append(f"{i} {_KIND_NAMES[k]} {c.arg0[i]} {c.arg1[i]}")
        else:
            lines.append(f"{i} {_KIND_NAMES[k]} {c.arg0[i]}")
    lines.append(("outputs " + " ".join(str(o) for o in c.outputs)).rstrip())
    return "\n".join(lines) + "\n"


def parse(text: str) -> Circuit:
    """Read the text format.  Only its syntax is checked here; a structural
    fault found by :class:`Circuit` is re-raised naming its line (gate i is
    on line i + 2)."""
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
        # a fault outside the gates lies in the input count or the outputs
        line = (exc.gate + 2 if exc.gate is not None
                else 1 if num_inputs < 0 else len(lines))
        raise StructureError(f"line {line}: {exc}") from None
