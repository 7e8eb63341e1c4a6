"""Bounded-fanin boolean circuits.

A circuit is a DAG of INPUT / CONST / NOT / AND / OR gates with dense ids in
topological order (operands always have smaller ids than the gate that reads
them) and an ordered list of output gate ids.  Circuits are immutable after
construction and safe to share across threads read-only; evaluation keeps its
scratch state local to the call.  Evaluation and the depth / alternation
sweeps share one lazily built level schedule per circuit (see
``_level_schedule``).  Evaluation is bit-sliced: ``_eval_packed`` takes
inputs packed 64 rows to a uint64 word, and the soundness sampler draws its
proofs in that form; ``eval_batch`` checks and packs 0/1 rows around it.

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

import heapq
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

INPUT, CONST, NOT, AND, OR = range(5)

# Largest proof width a circuit may declare: one proof row then takes 16 MB,
# over 50 times the widest system synthesized here (parity at n = 2^16 reads
# 327,647 proof bits).
MAX_INPUTS = 1 << 24

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

    Gates are stored as parallel ``array`` columns (kind ``b``, a and b
    ``q``) so that multi-million gate circuits stay cheap: callers copy
    them with ``array(col.typecode, col)``, and :func:`_reduce` writes
    survivors straight into them.  ``_arrays`` views them in numpy.
    """

    __slots__ = ("num_inputs", "kinds", "arg0", "arg1", "outputs", "_np_cache",
                 "_sched")

    def __init__(self, num_inputs, kinds, arg0, arg1, outputs, _validated=False):
        self.num_inputs = int(num_inputs)
        self.kinds = kinds if isinstance(kinds, array) else array("b", kinds)
        self.arg0 = arg0 if isinstance(arg0, array) else array("q", arg0)
        self.arg1 = arg1 if isinstance(arg1, array) else array("q", arg1)
        self.outputs = list(outputs)
        self._np_cache = self._sched = None
        if not _validated:
            if not 0 <= self.num_inputs <= MAX_INPUTS:
                raise StructureError(f"num_inputs {self.num_inputs} is not in 0..{MAX_INPUTS}")
            if not (len(self.arg0) == len(self.arg1) == len(self.kinds)):
                raise StructureError("gate arrays must have equal length")
            _check_gates(self.num_inputs, *self._arrays(), self.outputs)

    # -- basic structure ---------------------------------------------------

    @property
    def num_gates(self) -> int:
        return len(self.kinds)

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


def _check_gates(num_inputs: int, kinds, a0, a1, outputs):
    """Check every gate with whole-array masks (a known kind, an INPUT index
    below ``num_inputs``, a CONST bit, operands that are earlier gates), then
    the outputs; a fault raises :class:`StructureError` naming the first bad gate."""
    ids = np.arange(len(kinds))
    bad = (kinds < INPUT) | (kinds > OR) | (a0 < 0)
    bad |= (kinds == INPUT) & (a0 >= num_inputs)
    bad |= (kinds == CONST) & (a0 > 1)
    bad |= (kinds >= NOT) & (a0 >= ids)
    bad |= (kinds >= AND) & ((a1 < 0) | (a1 >= ids))
    if bad.any():
        i = int(bad.argmax())
        k, a, b = int(kinds[i]), int(a0[i]), int(a1[i])
        fault = _FAULTS.get(k, "unknown kind {k}")
        raise StructureError(fault.format(k=k, a=a, b=b), i)
    for o in outputs:
        if not 0 <= o < len(kinds):
            raise StructureError(f"output id {o} does not exist")


class CircuitBuilder:
    """Append-only constructor for :class:`Circuit`.

    The gates live in numpy columns whose capacity doubles as they fill:
    ``kinds`` (int8), ``arg0``, ``arg1`` and ``not_of`` (int64), the NOT
    that :meth:`not_` shares for each gate or -1.  These attributes view the
    live gates until the next emission; the capacity past them is no gate.

    One constructor per gate kind; each folds constant operands (an AND
    with 0 is that 0, an AND with 1 its other operand, and so on), which is
    always exact.  :meth:`gate` emits a gate as given, for ``upclose``'s
    per-output OR, which must cost a gate even on a constant.  :meth:`stamp`
    appends a small template once per row of an array of wires, folding
    through these same constructors (:func:`_specialize`), and :meth:`inputs`
    a run of INPUT gates.  :meth:`build` checks the gates (:func:`_check_gates`;
    the scalar constructors emit an operand that names no gate as given, the
    array methods refuse it), then merges structurally equal gates and drops
    logic gates no output reads (:func:`_reduce`), so synthesizers need not
    share subcircuits themselves; CONST gates and the NOTs of :meth:`not_`
    are shared as they are emitted, which keeps both small.
    """

    def __init__(self, num_inputs: int):
        self.num_inputs = num_inputs
        self.outputs: list[int] = []
        self._const_ids: dict[int, int] = {}
        self._n = 0  # the gate count
        self._kinds = np.empty(_CAPACITY, dtype=np.int8)
        self._arg0, self._arg1, self._not_of = np.empty((3, _CAPACITY), dtype=np.int64)

    kinds = property(lambda self: self._kinds[:self._n])
    arg0 = property(lambda self: self._arg0[:self._n])
    arg1 = property(lambda self: self._arg1[:self._n])
    not_of = property(lambda self: self._not_of[:self._n])

    def _grow(self, need: int):
        """Room for ``need`` gates, and at least twice as many as now."""
        cap, cols = max(need, 2 * len(self._kinds)), []
        for col in (self._kinds, self._arg0, self._arg1, self._not_of):
            cols.append(np.empty(cap, dtype=col.dtype))
            cols[-1][:self._n] = col[:self._n]
        self._kinds, self._arg0, self._arg1, self._not_of = cols

    def _emit(self, kinds, arg0, arg1) -> int:
        """Append a gate per entry of ``arg0``, as given; the first's id."""
        gid, end = self._n, self._n + len(arg0)
        if end > len(self._kinds):
            self._grow(end)
        self._kinds[gid:end] = kinds
        self._arg0[gid:end] = arg0
        self._arg1[gid:end] = arg1
        self._not_of[gid:end] = -1
        self._n = end
        return gid

    def _existing(self, wires) -> np.ndarray:
        """``wires`` as an int64 array, refused unless each names a gate."""
        wires = np.asarray(wires, dtype=np.int64)
        if wires.size and wires.view(np.uint64).max() >= self._n:  # or negative
            raise StructureError("wires must be existing gates")
        return wires

    def gate(self, kind: int, a: int, b: int = 0) -> int:
        """Append one gate as given, folding and sharing nothing."""
        gid = self._n
        if gid == len(self._kinds):
            self._grow(gid + 1)
        self._kinds[gid], self._arg0[gid], self._arg1[gid], self._not_of[gid] = kind, a, b, -1
        self._n = gid + 1
        return gid

    def input(self, index: int) -> int:
        return self.inputs(index, 1)[0]

    def inputs(self, start: int, count: int) -> list[int]:
        """INPUT gates for indexes ``start .. start + count - 1``, in order:
        the gates ``[input(i) for i in range(start, start + count)]`` emits,
        refusing the same first index, but nothing when it refuses."""
        count = max(count, 0)
        if count and not (0 <= start and start + count <= self.num_inputs):
            bad = start if start < 0 else max(start, self.num_inputs)
            raise StructureError(f"input index {bad} out of range")
        gid = self._emit(INPUT, np.arange(start, start + count), 0)
        return list(range(gid, gid + count))

    def const(self, bit: int) -> int:
        bit = int(bit)
        if bit not in (0, 1):
            raise StructureError("const must be 0 or 1")
        gid = self._const_ids.get(bit)
        if gid is None:
            gid = self._const_ids[bit] = self.gate(CONST, bit)
        return gid

    def const_value(self, g: int) -> int | None:
        """Return the bit a gate is a CONST of, or None."""
        return int(self._arg0[g]) if 0 <= g < self._n and self._kinds[g] == CONST else None

    def const_values(self, wires) -> np.ndarray:
        """:meth:`const_value` of every wire of an array, -1 for None."""
        wires = self._existing(wires)
        return np.where(self._kinds[wires] == CONST, self._arg0[wires], -1)

    def not_(self, a: int) -> int:
        if not 0 <= a < self._n:
            return self.gate(NOT, a)
        if self._kinds[a] == CONST:
            return self.const(1 - self._arg0[a])
        gid = int(self._not_of[a])
        if gid < 0:
            gid = self._not_of[a] = self.gate(NOT, a)
        return gid

    def nots(self, wires) -> np.ndarray:
        """:meth:`not_` of every wire of an array, shared as it shares
        them: the NOTs the builder lacks are appended in one block, in order
        of first appearance, and a CONST's NOT is the other CONST (made
        first, CONST 0 before CONST 1, if the builder lacks it)."""
        wires = np.asarray(wires, dtype=np.int64)
        bit = self.const_values(wires)
        out = np.empty(wires.shape, dtype=np.int64)
        for v in (1, 0):
            if (bit == v).any():
                out[bit == v] = self.const(1 - v)
        real = bit < 0
        flat = wires[real]
        lack = flat[self._not_of[flat] < 0]
        fresh = lack[np.sort(np.unique(lack, return_index=True)[1])]  # first-appearance order
        gid = self._emit(NOT, fresh, 0)
        self._not_of[fresh] = np.arange(gid, gid + len(fresh))
        out[real] = self._not_of[flat]
        return out

    def and_(self, a: int, b: int) -> int:
        if 0 <= a < self._n and self._kinds[a] == CONST:
            return b if self._arg0[a] else a
        if 0 <= b < self._n and self._kinds[b] == CONST:
            return a if self._arg0[b] else b
        return self.gate(AND, a, b)

    def or_(self, a: int, b: int) -> int:
        if 0 <= a < self._n and self._kinds[a] == CONST:
            return a if self._arg0[a] else b
        if 0 <= b < self._n and self._kinds[b] == CONST:
            return b if self._arg0[b] else a
        return self.gate(OR, a, b)

    def xor(self, a: int, b: int) -> int:
        va, vb = self.const_value(a), self.const_value(b)
        if va is not None:
            return b if va == 0 else self.not_(b)
        if vb is not None:
            return a if vb == 0 else self.not_(a)
        return self.or_(self.and_(a, self.not_(b)), self.and_(self.not_(a), b))

    # -- balanced trees ----------------------------------------------------

    @staticmethod
    def _tree(op, slots: list) -> int:
        """Balanced tree of ``op`` over nonempty ``slots``: every level pairs
        slots (0, 1), (2, 3), ..., and a ``None`` slot (or a missing last
        partner) lets its partner through."""
        while len(slots) > 1:
            slots = [a if b is None else b if a is None else op(a, b)
                     for a, b in zip(slots[::2], slots[1::2] + [None])]
        return slots[0]

    def _fold_tree(self, op, wires: Sequence[int], unit: int) -> int:
        """Tree of ``op`` (AND for ``unit`` 1, OR for ``unit`` 0) over the
        first constant ``1 - unit`` alone, which absorbs the tree; else over
        every wire but the ``unit`` constants, which drop out; else over the
        first wire.  The ``unit`` constant for no wires."""
        if not len(wires):
            return self.const(unit)
        bits = [self.const_value(w) for w in wires]
        absorb = [w for w, v in zip(wires, bits) if v == 1 - unit][:1]
        return self._tree(op, absorb or [w for w, v in zip(wires, bits) if v != unit]
                          or [wires[0]])

    def and_tree(self, wires: Sequence[int]) -> int:
        return self._fold_tree(self.and_, wires, 1)

    def or_tree(self, wires: Sequence[int]) -> int:
        return self._fold_tree(self.or_, wires, 0)

    def trees(self, kind: int, wires) -> np.ndarray:
        """:meth:`and_tree` (kind AND) or :meth:`or_tree` (kind OR) of
        every row of ``wires``, a (rows, c) array holding each row's wires
        first, at least one, and -1 after them; c is at most 31.  One
        :meth:`stamp`: the rows whose constants sit in the same columns
        share a template, the tree the scalar call builds around them."""
        wires = np.asarray(wires, dtype=np.int64)
        if wires.ndim != 2 or wires.shape[1] > 31:
            raise CircuitError(f"trees takes rows of at most 31 wires, got {wires.shape}")
        absent = wires < 0
        leaves = np.where(absent, wires[:, :1], wires)
        # 0 a wire, 1 CONST 0, 2 CONST 1, 3 no leaf
        cls = np.where(absent, 3, self.const_values(leaves) + 1)
        digit = 2 * np.arange(wires.shape[1], dtype=np.int64)
        distinct, which = np.unique((cls << digit).sum(axis=1), return_inverse=True)
        return self.stamp([_tree_template(kind, tuple(p)) for p in
                           ((distinct[:, None] >> digit) & 3).tolist()], leaves, which)

    # -- blocks ------------------------------------------------------------

    def stamp(self, template, leaves, which=None) -> np.ndarray:
        """Append one copy of a template per row of ``leaves`` and return
        each row's root wire.

        A template is a tuple ``(gates, root)``.  Gate j of the tuple
        ``gates`` is ``(kind, op0, op1)`` with kind NOT (op1 unused), AND or
        OR; an op >= 0 names an earlier template gate and an op < 0 names
        leaf column ``-1 - op``, and ``root`` is such an op, or a tuple of
        them for a template with several roots, when stamp returns a (rows,
        r) array.  ``leaves`` is a (rows, k) array of existing wire ids.
        With ``which``, ``template`` is a sequence of templates, all with
        one root or all with a tuple of roots, and row r stamps
        ``template[which[r]]``; a row whose template has fewer roots than
        the most any has is padded with -1.

        The rows' gates are appended in row order, each row's in template
        order.  Constants fold to exactly the wires :meth:`not_`,
        :meth:`and_` and :meth:`or_` would return: a folded gate is not
        emitted and its readers get that wire.  A constant the builder does
        not hold yet is emitted before the block, CONST 0 before CONST 1,
        where the scalar constructors would emit it at the row that first
        needs it.  NOTs are not looked up in or added to the ones
        :meth:`not_` shares; :meth:`build` merges each duplicate into its
        first occurrence.

        A row whose template's gates read a CONST leaf stamps that template
        specialized to its row's constants (:func:`_specialize`, once per
        template and placement of constants), and then every row is laid
        out in whole-array steps over all its gates, whatever its template.
        """
        leaves = np.asarray(leaves, dtype=np.int64)
        if leaves.ndim != 2:
            raise CircuitError(f"leaves must be (rows, k), got shape {leaves.shape}")
        rows, k = leaves.shape
        if which is None:
            template, which = (template,), np.zeros(rows, dtype=np.intp)
        else:
            which = np.asarray(which, dtype=np.intp)
            if which.shape != (rows,) or rows and which.view(np.uintp).max() >= len(template):
                raise CircuitError("which needs one template index per row")
        template = tuple(template)
        ts = _template_set(template, k)
        const = self._kinds[self._existing(leaves)] == CONST
        fold = ()  # the rows whose template's gates read a CONST leaf
        if const.any():  # bits: 1 + the bit of each CONST leaf its row's template reads
            bits = (const & ts.reads[which]) * (self._arg0[leaves] + 1)
            fold = np.flatnonzero(bits.any(axis=1))
        if not len(fold) and len(template) == 1:  # nothing to fold: one layout
            gates = self._n + np.arange(rows * len(ts.kinds)).reshape(rows, len(ts.kinds))
            wire = np.concatenate([leaves, gates], axis=1)
            arg1 = wire[:, ts.ops[1]]
            arg1[:, ts.kinds == NOT] = 0
            kinds = ts.kinds[None].repeat(rows, axis=0)  # faster than np.tile on few rows
            self._emit(kinds.ravel(), wire[:, ts.ops[0]].ravel(), arg1.ravel())
            return wire[:, ts.root[0]]
        if len(fold):  # each (template, placement of constants) specialized once
            keys, spec = np.unique(np.column_stack([which[fold], bits[fold]]), axis=0,
                                   return_inverse=True)
            which = which.copy()
            which[fold] = len(template) + spec.ravel()
            specs = [_specialize(template[t], tuple(p)) for t, *p in keys.tolist()]
            made = {v for _, consts in specs for v in consts}
            extra = [self.const(v) if v in made else 0 for v in (0, 1)]  # 0: unread
            template += tuple(t for t, _ in specs)
            leaves = np.column_stack([leaves, np.broadcast_to(extra, (rows, 2))])
            ts = _template_set(template, k + 2)
        return self._lay_out(ts, which, leaves)

    def _lay_out(self, ts, which, leaves) -> np.ndarray:
        """Emit the rows in runs of at most ``_LAY_OUT_WIRES`` layout cells (to
        bound the work arrays) and return their roots.  Row r's wire layout
        (:class:`_TemplateSet`) is its leaves, then its gates' ids from start[r]."""
        roots = np.full((len(which),) + ts.root.shape[1:], -1, dtype=np.int64)
        counts = ts.size[which]  # gates each row emits
        start = np.cumsum(counts) - counts + self._n
        k = leaves.shape[1]
        width = k + int(ts.size.max(initial=0))
        step = max(1, _LAY_OUT_WIRES // width)
        for lo in range(0, len(which), step):
            t = which[lo:lo + step]
            n = ts.size[t]
            wire = np.empty((len(t), width), dtype=np.int64)
            wire[:, :k] = leaves[lo:lo + step]
            wire[:, k:] = start[lo:lo + step, None] + np.arange(width - k)
            row = np.arange(0, len(t) * width, width)
            wire = wire.ravel()
            rc = ts.root[t]
            if roots.ndim == 1:
                roots[lo:lo + step] = wire[row + rc]
            else:
                r, c = np.nonzero(rc >= 0)
                roots[lo + r, c] = wire[row[r] + rc[r, c]]
            g = np.arange(n.sum()) + np.repeat(ts.first[t] - (np.cumsum(n) - n), n)
            kinds = ts.kinds[g]
            operands = wire[np.repeat(row, n) + ts.ops[:, g]]
            operands[1, kinds == NOT] = 0
            self._emit(kinds, *operands)
        return roots

    def set_outputs(self, outputs: Sequence[int]):
        self.outputs = list(outputs)

    def append_circuit(self, other: Circuit, input_wires: Sequence[int]) -> list[int]:
        """Inline another circuit, feeding its inputs from the given wires.

        The other circuit's INPUT gates become the given wires and its other
        gates are appended in order, with their operands moved to the new
        ids.  Returns the wires carrying the other circuit's outputs.
        """
        if len(input_wires) != other.num_inputs:
            raise InputArityError(
                f"expected {other.num_inputs} input wires, got {len(input_wires)}"
            )
        kinds, a0, a1 = other._arrays()
        wires = self._existing(input_wires)
        is_input = kinds == INPUT
        copied = np.flatnonzero(~is_input)
        remap = np.empty(len(kinds), dtype=np.int64)
        remap[is_input] = wires[a0[is_input]]
        remap[copied] = self._n + np.arange(len(copied))
        k = kinds[copied]
        new0, new1 = a0[copied], a1[copied]
        new0[k >= NOT] = remap[new0[k >= NOT]]
        new1[k >= AND] = remap[new1[k >= AND]]
        self._emit(k, new0, new1)
        return remap[other.outputs].tolist()

    def build(self) -> Circuit:
        """The circuit, checked and reduced by :func:`_reduce`."""
        cols = self.kinds, self.arg0, self.arg1
        _check_gates(self.num_inputs, *cols, self.outputs)
        return Circuit(self.num_inputs, *_reduce(*cols, self.outputs), _validated=True)


# Wire-layout cells (a row's leaves and gates) a stamp lays out in one run.
_LAY_OUT_WIRES = 1 << 18
_CAPACITY = 1 << 10  # gates a builder holds before its columns first double

class _TemplateSet(NamedTuple):
    """The templates of one stamp call over k leaf columns, laid out once in
    a row's wire layout (leaf columns first, then gate j at column k + j):
    each template's gate count and first gate in the flat ``kinds`` and
    ``ops`` (operand columns), its root columns (a row padded with -1 for
    tuple roots) and the leaf columns its gates read."""

    size: np.ndarray
    first: np.ndarray
    kinds: np.ndarray
    ops: np.ndarray  # (2, gates): each gate's two operand columns
    root: np.ndarray
    reads: np.ndarray


@lru_cache(maxsize=1024)
def _template_arrays(template) -> tuple:
    """One template's gate kinds, its gates' two operand ops (a NOT's
    second is its first) and its roots, as arrays."""
    gates, root = template
    gates = np.array(gates, dtype=np.int64).reshape(-1, 3)
    kinds, ops = gates[:, 0].astype(np.int8), gates[:, 1:]
    ops[kinds == NOT, 1] = ops[kinds == NOT, 0]
    return kinds, ops, np.array(root, dtype=np.int64).reshape(-1)


@lru_cache(maxsize=256)
def _template_set(templates: tuple, k: int) -> _TemplateSet:
    several = {isinstance(t[1], tuple) for t in templates}
    if len(several) > 1:
        raise CircuitError("templates in one stamp need one root each or a tuple each")
    kinds, ops, roots = zip(*map(_template_arrays, templates)) if templates else ((),) * 3
    size = np.array([len(g) for g in kinds], dtype=np.int64)
    first = np.cumsum(size) - size
    kinds = np.concatenate(kinds or [np.zeros(0, dtype=np.int8)])
    ops = np.concatenate(ops or [np.zeros((0, 2), dtype=np.int64)])
    owner = np.repeat(np.arange(len(size)), size)
    ok = ((NOT <= kinds) & (kinds <= OR))[:, None] & (-k <= ops) & (
        ops < (np.arange(len(kinds)) - first[owner])[:, None])
    count = np.array([len(r) for r in roots], dtype=np.int64)
    pad = np.arange(count.max(initial=several != {True})) >= count[:, None]  # rows of roots
    root = np.zeros(pad.shape, dtype=np.int64)
    root[~pad] = np.concatenate(roots or [np.zeros(0, dtype=np.int64)])
    if not ok.all() or not (((-k <= root) & (root < size[:, None])) | pad).all():
        raise StructureError("template gates must read earlier gates or leaf columns")
    cols = np.where(ops >= 0, k + ops, -1 - ops).T
    reads = np.zeros((len(size), k), dtype=bool)
    for c in cols:
        reads[owner[c < k], c[c < k]] = True
    root = np.where(pad, -1, np.where(root >= 0, k + root, -1 - root))
    return _TemplateSet(size, first, kinds, cols, root if several == {True} else root[:, 0],
                        reads)


def _replay(pattern: tuple, build) -> tuple:
    """The stamp template of ``build(b, leaves)``, run once gate by gate on a
    scratch builder b whose gate i is leaf column i: an INPUT, or CONST v
    where ``pattern[i] == 1 + v``.  ``build`` emits through b's
    constructors and returns the root wire, or a list of them for a
    template with a tuple of roots.  A CONST it makes (a NOT of a constant
    folds to one) becomes leaf column ``len(pattern) + v``, even where a
    leaf holds the same constant: the stamping builder's shared CONST, as
    the scalar constructors make it, need not be that leaf.  Returns the
    template and the values of the CONSTs made; the one path from scalar
    builder code to a template."""
    k = len(pattern)
    b = CircuitBuilder(k)
    for i, p in enumerate(pattern):
        b.gate(CONST if p else INPUT, p - 1 if p else i)
    out = build(b, list(range(k)))
    col, gates, made = [-1 - i for i in range(k)], [], []  # each gate's op
    for kind, a, c in zip(b.kinds[k:].tolist(), b.arg0[k:].tolist(), b.arg1[k:].tolist()):
        if kind == CONST:
            col.append(-1 - k - a)
            made.append(a)
        else:
            col.append(len(gates))
            gates.append((kind, col[a], 0 if kind == NOT else col[c]))
    root = tuple(col[w] for w in out) if isinstance(out, list) else col[out]
    return (tuple(gates), root), tuple(made)


@lru_cache(maxsize=1024)
def _specialize(template: tuple, pattern: tuple) -> tuple:
    """A template's gates replayed through :meth:`CircuitBuilder.not_`,
    :meth:`~CircuitBuilder.and_` and :meth:`~CircuitBuilder.or_` over leaf
    columns that hold the constants of ``pattern`` (see :func:`_replay`):
    the template a row with those constants stamps, and the values of the
    CONSTs its folded NOTs make."""
    gates, root = template

    def build(b: CircuitBuilder, leaves: list):
        wires = []

        def wire(op: int) -> int:
            return wires[op] if op >= 0 else leaves[-1 - op]

        for kind, a, c in gates:
            wires.append(b.not_(wire(a)) if kind == NOT else
                         (b.and_ if kind == AND else b.or_)(wire(a), wire(c)))
        return list(map(wire, root)) if isinstance(root, tuple) else wire(root)

    return _replay(pattern, build)


@lru_cache(maxsize=None)
def _xor_template(k: int, first: int = 0) -> tuple:
    """Stamp template of the balanced XOR tree of :meth:`CircuitBuilder.xor`
    over leaf columns first .. first + k - 1 (k >= 1), paired as
    ``CircuitBuilder._tree`` pairs them."""
    return _replay((0,) * (first + k), lambda b, leaves: b._tree(b.xor, leaves[first:]))[0]


@lru_cache(maxsize=None)
def _tree_template(kind: int, pattern: tuple) -> tuple:
    """Stamp template of :meth:`CircuitBuilder.and_tree` (kind AND) or
    :meth:`~CircuitBuilder.or_tree` (kind OR) over leaf columns of the
    given classes: 0 a wire, 1 CONST 0, 2 CONST 1, 3 no leaf."""
    tree = CircuitBuilder.and_tree if kind == AND else CircuitBuilder.or_tree
    return _replay(tuple(p % 3 for p in pattern), lambda b, leaves: tree(
        b, [w for w, p in zip(leaves, pattern) if p != 3]))[0]


def bits_for(k: int) -> int:
    """Bits that encode k >= 1 distinct values: ceil(log2 k), exactly."""
    return (k - 1).bit_length()


# Distinct truth tables whose lowered covers are kept (and field layouts
# whose decoded values are), least recently used first out; one regular
# synthesis lowers a few dozen.
COVER_CACHE = 256
# Tables over more wires are covered by their true rows: the implicant search
# visits every one of the 2^k sets of free wires, with a 2^k-bit row set each.
COVER_MAX_WIRES = 12


def table_to_subcircuit(builder: CircuitBuilder, table: Sequence[int], wires: Sequence[int]) -> int:
    """Append a two-level (DNF) subcircuit computing an arbitrary truth table.

    ``table`` has ``2**k`` entries where ``k = len(wires)``; row ``r`` gives
    the value when ``wires[i]`` carries bit ``(r >> i) & 1`` (wires[0] is the
    least significant index bit).  The true rows are covered by prime
    implicants (:func:`_cover`); each becomes a balanced AND tree of its
    literals over the wire slots (:func:`_slot_and_tree`), and a balanced OR
    tree joins them.  There are at most as many implicants as true rows, so
    the local depth is at most ``ceil(log2 k) + ceil(log2 #true_rows) + 1``.
    A constant table collapses to a CONST gate.  One row of
    :func:`stamp_tables`.
    """
    return int(stamp_tables(builder, [table], [list(wires)], [0])[0])


def stamp_tables(builder: CircuitBuilder, tables, wires, which) -> np.ndarray:
    """Truth tables on many rows of wires in one :meth:`CircuitBuilder.stamp`:
    row r computes ``tables[which[r]]`` (see :func:`table_to_subcircuit`)
    over the wires of row r of ``wires``, a (rows, c) array holding as many
    as its table has inputs first, least significant index bit first, and
    -1 after them.  Each distinct table is lowered once (:func:`_template`),
    the one source of every table's gates.  The NOTs of the literals the
    rows read come from :meth:`CircuitBuilder.nots`, so the rows share them
    rather than each emitting its own."""
    wires = np.asarray(wires, dtype=np.int64)
    which = np.asarray(which, dtype=np.intp)
    ks = np.array([max(len(t), 1).bit_length() - 1 for t in tables], dtype=np.intp)
    templates = tuple(_template(int(k), _table_bytes(t, int(k))) for t, k in zip(tables, ks))
    k = ks[which]
    if (np.count_nonzero(wires >= 0, axis=1) != k).any():
        raise CircuitError("each row needs one wire per input of its table")
    rows, width = len(wires), int(ks.max(initial=0))
    # _record's leaf columns per row: CONST 0, CONST 1, the wires, their
    # NOTs; only a constant table reads a CONST, as its root
    const = [builder.const(v) if ((), -1 - v) in templates else -1 for v in (0, 1)]
    fill = max(const[0], const[1], int(wires.max(initial=0)))
    leaves = np.full((rows, 2 + 2 * width), fill, dtype=np.int64)
    leaves[:, :2] = np.where(np.array(const) < 0, fill, const)
    r, c = np.nonzero(np.arange(width) < k[:, None])
    leaves[r, 2 + c] = wires[r, c]
    ts = _template_set(templates, leaves.shape[1])  # the NOTs of the literals rows read
    read = ts.reads[which[r], 2 + k[r] + c] | (ts.root[which[r]] == 2 + k[r] + c)
    r, c = r[read], c[read]
    leaves[r, 2 + k[r] + c] = builder.nots(wires[r, c])
    return builder.stamp(templates, leaves, which)


def _table_bytes(table, k: int) -> bytes:
    """A truth table over k wires as the bytes :func:`_template` keys on."""
    if len(table) != 1 << k:
        raise CircuitError(f"table needs {1 << k} entries, got {len(table)}")
    return np.asarray(table, dtype=bool).tobytes()


def _record(k: int, gadget) -> tuple:
    """The stamp template of ``gadget(b, wires)`` over k wires, replayed
    (:func:`_replay`) with leaf columns 0 and 1 CONST 0 and CONST 1,
    columns 2 .. k + 1 the wires and columns k + 2 .. 2k + 1 their NOTs,
    which :meth:`CircuitBuilder.const` and :meth:`CircuitBuilder.not_` give
    the gadget and the caller supplies, so that the rows of a stamp share
    them.  A gadget that returns a list of wires gives a template with a
    tuple of roots."""
    def build(b: CircuitBuilder, leaves: list):
        b._const_ids.update({0: 0, 1: 1})
        b._not_of[2:k + 2] = leaves[k + 2:]
        return gadget(b, leaves[2:k + 2])

    return _replay((1, 2) + (0,) * (2 * k), build)[0]


@lru_cache(maxsize=COVER_CACHE)
def _template(k: int, table: bytes) -> tuple:
    """A table's lowered cover as a stamp template over the leaf columns of
    :func:`_record`; the one source of the gates every table lowers to.
    Implicants that share a literal pair share its AND gate; a constant
    table's root is its CONST column."""
    on = np.frombuffer(table, dtype=bool)

    def cover(b: CircuitBuilder, wires: list) -> int:
        if not on.any() or on.all():
            return b.const(int(on.all()))
        ands: dict = {}

        def and_(a: int, c: int) -> int:
            gid = ands.get((a, c))
            if gid is None:
                gid = ands[a, c] = b.and_(a, c)
            return gid

        return b.or_tree([_slot_and_tree(b, and_, wires, mask, value)
                          for mask, value in _cover(k, table)])

    return _record(k, cover)


def _cover(k: int, table: bytes) -> tuple:
    """Prime implicants covering the true rows of a nonconstant k-wire table.

    An implicant is a ``(mask, value)`` pair: it holds on the rows r with
    ``r & mask == value``, and every such row is true.  Quine-McCluskey
    (Brayton et al., *Logic Minimization Algorithms for VLSI Synthesis*,
    1984) on row bitsets (bit r of an int is row r): the cube with free bits
    D through row x is an implicant when both its halves along one bit of D
    are, and it is prime when no cube with one more free bit is.  The
    essential primes are taken first, then greedily the prime covering the
    most rows still uncovered, fewer literals first on ties.  The result is
    sorted by literal, slot 0 first (0, then 1, then absent), so the gates
    emitted for a table never depend on the order of discovery; of the
    orders tried, this one let the reduction pass share the most OR gates
    between tables over the same wires.
    """
    full = (1 << k) - 1
    if k > COVER_MAX_WIRES:
        rows = np.flatnonzero(np.frombuffer(table, dtype=bool))
        return tuple((full, r) for r in rows.tolist())
    on = _bitset(np.frombuffer(table, dtype=bool))
    index = np.arange(1 << k)
    low = [_bitset(index >> i & 1 == 0) for i in range(k)]  # rows with bit i 0
    holds = {0: on}  # free bits D -> the rows x whose D-cube is all true
    zeros = [(1 << (1 << k)) - 1]  # D -> the rows that are 0 on D
    spans = [1]  # D -> the rows of the D-cube through row 0
    for free in range(1, 1 << k):
        bit = free & -free
        i = bit.bit_length() - 1
        zeros.append(zeros[free ^ bit] & low[i])
        spans.append(spans[free ^ bit] | spans[free ^ bit] << bit)
        half = holds.get(free ^ bit)
        if half:
            cube = half & ((half >> bit & low[i]) | (half & low[i]) << bit)
            if cube:
                holds[free] = cube
    primes = []  # (literals, mask, value)
    for free, cube in holds.items():
        prime = cube & zeros[free]  # one row per cube: the one 0 on D
        for i in range(k):
            if not free >> i & 1:
                prime &= ~holds.get(free | 1 << i, 0)
        while prime:
            x = prime & -prime
            primes.append((k - free.bit_count(), full ^ free, x.bit_length() - 1))
            prime ^= x
    primes.sort()
    rows = [spans[full ^ mask] << value for _, mask, value in primes]
    once = twice = 0
    for r in rows:
        twice |= once & r
        once |= r
    chosen = [bool(r & once & ~twice) for r in rows]  # the essential ones
    uncovered = on
    for r, c in zip(rows, chosen):
        if c:
            uncovered &= ~r
    # greedy, lazily: a prime's gain only falls, so a popped prime whose gain
    # is still no worse than every stale bound left is the first best one
    heap = [(-(r & uncovered).bit_count(), p) for p, r in enumerate(rows)]
    heapq.heapify(heap)
    while uncovered:
        _, p = heapq.heappop(heap)
        entry = (-(rows[p] & uncovered).bit_count(), p)
        if heap and entry > heap[0]:
            heapq.heappush(heap, entry)
            continue
        chosen[p] = True
        uncovered &= ~rows[p]
    return tuple(sorted(
        ((mask, value) for (_, mask, value), c in zip(primes, chosen) if c),
        key=lambda mv: [mv[1] >> i & 1 if mv[0] >> i & 1 else 2 for i in range(k)]))


def _bitset(bits: np.ndarray) -> int:
    """A bool array as an int whose bit r is entry r."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _slot_and_tree(builder: CircuitBuilder, and_, wires: Sequence[int],
                   mask: int, value: int) -> int:
    """AND of an implicant's literals as a balanced tree over the wire slots,
    its gates made by ``and_``.

    Slots pair (0, 1), (2, 3), ... at every level and a missing literal lets
    its partner through, so implicants that agree on a pair of wires emit
    the same AND gate there: one gate in a table's template, and one after
    the reduction pass across tables on the same wires.  A full minterm
    gives exactly :meth:`CircuitBuilder.and_tree` of its literals.
    """
    return builder._tree(and_, [
        (w if value >> i & 1 else builder.not_(w)) if mask >> i & 1 else None
        for i, w in enumerate(wires)
    ])


@lru_cache(maxsize=COVER_CACHE)
def _field_values(widths: tuple) -> tuple:
    """Each field's decoded value on every table row, clamped to
    ``num_values - 1`` when ``num_values`` is given; read-only arrays."""
    rows = np.arange(1 << sum(nbits for nbits, _ in widths))
    vals, shift = [], 0
    for nbits, nv in widths:
        v = (rows >> shift) & ((1 << nbits) - 1)
        if nv is not None:
            np.minimum(v, nv - 1, out=v)
        v.flags.writeable = False
        vals.append(v)
        shift += nbits
    return tuple(vals)


def lower_fields(builder: CircuitBuilder, fields, fn):
    """Lower a predicate over small bit-encoded fields to a DNF subcircuit.

    ``fields`` is a list of ``(wires_msb_first, num_values)`` pairs; each
    field decodes to an integer, clamped to ``num_values - 1`` when
    ``num_values`` is given (the out-of-range-encoding convention).  ``fn``
    is called once, with one read-only int array per field holding that
    field's value on every row of the truth table, and returns the
    predicate's bit on every row as an array of the same length, or a
    (predicates, rows) array of several predicates.  Returns the root wire,
    or one per predicate as an array, from one :func:`stamp_tables` call.
    """
    wires_lsb: list[int] = []
    widths = []
    for ws, nv in fields:
        wires_lsb.extend(reversed(list(ws)))
        widths.append((len(ws), nv))
    tables = np.asarray(fn(*_field_values(tuple(widths))))
    several = np.atleast_2d(tables)
    roots = stamp_tables(builder, several, np.tile(wires_lsb, (len(several), 1)),
                         np.arange(len(several)))
    return roots if tables.ndim == 2 else int(roots[0])


# ---------------------------------------------------------------------------
# reduction
#
# Structural hashing and a cone-of-influence sweep, the standard AIG passes
# (Brayton & Mishchenko, "ABC", CAV 2010), as whole-array rounds.

# The first merge round keys about this many gates at a time, so its int64
# keys and sort order stay a bounded part of the builder's own arrays.
_KEY_CHUNK = 1 << 20


def _first_of_key(kinds, lo, hi, ids, base: int) -> np.ndarray:
    """For each gate in ``ids`` (ascending), the first gate in ``ids`` with
    its key: kind, then smaller operand, then larger operand.

    ``np.unique(key, return_index=True, return_inverse=True)`` gives the same
    map with more than twice the work memory.
    """
    key = kinds[ids].astype(np.int64)
    key *= base
    key += lo[ids]
    key *= base
    key += hi[ids]
    order = np.argsort(key, kind="stable")  # equal keys stay in id order
    key = key[order]
    opens = np.ones(len(key), dtype=bool)  # the key differs from the one before
    np.not_equal(key[1:], key[:-1], out=opens[1:])
    del key
    order = order.astype(np.int32)
    group = np.cumsum(opens, dtype=np.int32)
    group -= 1
    first = np.empty_like(order)
    first[order] = order[opens][group]
    return ids[first]


def _reduce(kinds, arg0, arg1, outputs):
    """Merge structurally equal gates, then drop logic gates nobody reads.

    Takes a builder's int8 and int64 gate columns as arrays and its
    outputs, and returns them as :class:`Circuit` holds them.  Survivors
    keep their order, so operands still precede their readers; a kept
    AND/OR lists its smaller operand first.
    """
    k = np.asarray(kinds, dtype=np.int8)
    n = len(k)
    if n == 0:
        return array("b"), array("q"), array("q"), outputs
    a0, a1 = (np.asarray(a, dtype=np.int64) for a in (arg0, arg1))
    base = max(n, int(a0.max()) + 1)  # INPUT indexes may exceed the gate count
    if 5 * base * base >= 1 << 63:  # a key must fit in an int64; ids in int32
        raise CircuitError(f"cannot reduce: {base} gate ids or input indexes "
                           "overflow the merge key")
    unary = k < AND  # repeats its one operand (index, bit or gate) as both
    lo = a0.astype(np.int32)
    hi = a1.astype(np.int32)
    hi[unary] = lo[unary]
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi, out=hi)
    del unary
    canon, live = _merge(k, lo, hi, base)
    out = np.asarray(outputs, dtype=np.int32)
    nxt = canon[out]
    while not np.array_equal(nxt, out):  # merged in several rounds
        out, nxt = nxt, canon[nxt]
    kept = (k < NOT) & (canon == np.arange(n, dtype=np.int32))  # not merged away
    del canon
    kept |= _sweep(lo, hi, live, out)
    new_id = np.cumsum(kept, dtype=np.int32)
    new_id -= 1
    outputs = new_id[out].tolist()
    leaves = np.flatnonzero(kept & (k < NOT))  # the INPUT and CONST gates
    leaf_at = new_id[leaves]
    lo, hi = new_id[lo[kept]], new_id[hi[kept]]
    del new_id
    # survivors go straight into the circuit's arrays
    kinds, kk = _zeros("b", len(lo))
    kk[:] = k[kept]
    arg0, r0 = _zeros("q", len(lo))
    r0[:] = lo
    r0[leaf_at] = a0[leaves]
    arg1, r1 = _zeros("q", len(lo))
    r1[:] = hi
    r1[kk < AND] = 0
    return kinds, arg0, arg1, outputs


def _merge(k, lo, hi, base: int):
    """Map every gate to the first gate with its key, until nothing merges.

    The readers of merged gates move to that gate and are keyed again;
    rounds after the first key only the gates that read a gate merged or
    merged into in the round before.  Returns each gate's canonical gate and
    the mask of logic gates that are not merged away; their ``lo``/``hi``
    now name canonical gates.
    """
    n = len(k)
    canon = np.empty(n, dtype=np.int32)
    step = -(-base // -(-n // _KEY_CHUNK))  # a range of hi per chunk
    for start in range(0, base, step):
        part = np.flatnonzero((hi >= start) & (hi < start + step))
        canon[part] = _first_of_key(k, lo, hi, part, base)
    # from here on lo/hi are read as gate ids: INPUT/CONST gates point at 0
    live = k >= NOT
    lo[~live] = 0
    hi[~live] = 0
    merged = np.flatnonzero(canon != np.arange(n, dtype=np.int32))
    while merged.size:
        live[merged] = False
        touched = np.zeros(n, dtype=bool)
        touched[merged] = True
        touched[canon[merged]] = True
        c = np.flatnonzero(live & (touched[lo] | touched[hi]))
        del touched
        nlo, nhi = canon[lo[c]], canon[hi[c]]
        lo[c] = np.minimum(nlo, nhi)
        hi[c] = np.maximum(nlo, nhi)
        del nlo, nhi
        rep = _first_of_key(k, lo, hi, c, base)
        moved = rep != c
        merged = c[moved]
        canon[merged] = rep[moved]
    return canon, live


def _sweep(lo, hi, live, out):
    """Peel the logic gates that no output and no live gate reads off
    ``live``, round by round, and return it."""
    n = len(live)
    # reader slots per gate (a NOT fills both of its own); outputs count too
    refs = np.bincount(lo[live], minlength=n).astype(np.int32)
    refs += np.bincount(hi[live], minlength=n)
    refs += np.bincount(out, minlength=n)
    dead = np.flatnonzero(live & (refs == 0))
    while dead.size:
        live[dead] = False
        hit, times = np.unique(np.concatenate([lo[dead], hi[dead]]),
                               return_counts=True)
        refs[hit] -= times
        dead = hit[live[hit] & (refs[hit] == 0)]
    return live


def _zeros(code: str, m: int):
    """A zeroed ``array`` of m items and a writable numpy view of it."""
    a = array(code, [0]) * m
    return a, np.frombuffer(a, dtype=np.dtype(code))


# ---------------------------------------------------------------------------
# level schedule
#
# Every sweep over a circuit (evaluation, depth, alternations) runs one level
# at a time: a gate's level is its depth, so its operands all sit in earlier
# levels and a whole level can be processed with one array operation per
# gate kind.  This is the word-parallel simulation style of AIG tools (see
# Brayton & Mishchenko, "ABC", CAV 2010).  ``_gate_levels`` finds the levels
# block by block in id order, with no fan-out lists.


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
    widest: int         # most gates in one logic group (0 without logic gates)


# Gate ids _gate_levels scans at a time, a round per level: on a 20k-level
# chain 2^14 took 3.0x as long as 2^12, on threshold n=256 2^10 took 1.6x.
_LEVEL_BLOCK = 1 << 12
_UNLEVELLED = 1 << 30  # at or above: not levelled yet


def _gate_levels(kinds, a0, a1) -> np.ndarray:
    """Level of every gate, one block of ids at a time in id order.

    Operands precede their readers, so when a block starts every earlier
    gate has its level.  Each round gives the block's waiting gates their
    larger operand level plus one (still unlevelled while an operand is).
    """
    level = np.where(kinds >= NOT, _UNLEVELLED, 0).astype(np.int32)
    b = np.where(kinds >= AND, a1, a0)  # a NOT reads its operand twice
    for lo in range(0, len(kinds), _LEVEL_BLOCK):
        ids = lo + np.flatnonzero(level[lo:lo + _LEVEL_BLOCK])
        x, y = a0[ids], b[ids]
        while ids.size:
            top = np.maximum(level[x], level[y])
            level[ids] = top + 1
            wait = top >= _UNLEVELLED
            if wait[0]:  # unless it reads a later gate, the first one is levelled
                raise StructureError("operands not earlier gates", int(ids[0]))
            ids, x, y = ids[wait], x[wait], y[wait]
    return level


def _level_schedule(kinds, a0, a1) -> _Schedule:
    n = len(kinds)
    level = _gate_levels(kinds, a0, a1)
    level.flags.writeable = False
    key = level * 5 + kinds
    if key.max(initial=0) < 1 << 15:
        key = key.astype(np.int16)  # numpy sorts int16 stably by radix
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
    widest = max((hi - lo for _, lo, hi in groups), default=0)
    return _Schedule(level, slot, src0, src1, ends[INPUT], ends[CONST], groups, widest)


# ---------------------------------------------------------------------------
# evaluation

# Packed gate values held per chunk of words by _eval_packed (and uint64
# temporaries per block of languages._member_packed).  Every numpy call of a
# level group also pays a dispatch cost that only a chunk of about 16 words
# or more amortises: 512 KB is 3-9 words on 4k-17k-gate circuits, 2 MB
# (about one core's L2) 15-40.  Re-swept once groups stopped allocating, in
# perfbench pairs against 2 MB (seed 1, 5 pairs, 2-vCPU Xeon with 2 MB L2 a
# core): 4 MB lost 4-7% of proofs_per_s on every workload and raised peak
# RSS 2-3 MB; 1.5 MB lost 3% on certify-small and 5% on nc0-graphs; 1 MB
# gained 11% on nc0-graphs but lost 8% on compile-large.  A circuit too
# large for one word in 2 MB still takes one word a chunk.
_CHUNK_BYTES = 1 << 21
# Bits, a byte each, per _pack_rows or _unpack_rows block.  Transposes of
# 2 MB blocks unpacked up to 2.6x slower than 512 KB ones, so this stays.
_BLOCK_BYTES = 1 << 19
_ALL_ONES = np.uint64(2**64 - 1)
_BINARY_OPS = {AND: np.bitwise_and, OR: np.bitwise_or}
# _as_bits's names for a shape's dimension count and for each axis's length
_DIMS = ("zero", "one", "two")
_AXES = ("length", "row length")


def _as_bits(x, shape: tuple | None = None, what: str = "input",
             error: type = InputArityError) -> np.ndarray:
    """``x`` (a 0/1 string or array-like) as a uint8 array of bits.

    With ``shape``, ``x`` must have that many dimensions and each length
    it names; its None entries, which come first, match any length.  A
    mismatch raises ``error``.  Any entry other than 0 or 1 raises
    :class:`InputBitError`.
    """
    if isinstance(x, str):
        bits = np.frombuffer(x.encode(), dtype=np.uint8) - np.uint8(ord("0"))
    else:
        bits = np.asarray(x)
    if shape is not None and bits.shape != shape:
        if bits.ndim != len(shape):
            raise error(f"{what} must be {_DIMS[len(shape)]}-dimensional, "
                        f"got shape {bits.shape}")
        free = shape.count(None)
        if bits.shape[free:] != shape[free:]:
            axis = next(a for a in range(free, len(shape)) if bits.shape[a] != shape[a])
            raise error(f"{what} {_AXES[axis]} {bits.shape[axis]} != {shape[axis]}")
    if bits.size and not (
        bits.max() <= 1 if bits.dtype == np.uint8
        else ((bits == 0) | (bits == 1)).all()
    ):
        raise InputBitError(f"{what} bits must be 0 or 1")
    return bits.astype(np.uint8, copy=False)


def eval_circuit(c: Circuit, x) -> list[int]:
    """Evaluate on a single input vector; returns the output bits."""
    return eval_batch(c, _as_bits(x, (c.num_inputs,))[None])[0].tolist()


def eval_batch(c: Circuit, X: np.ndarray) -> np.ndarray:
    """Evaluate many inputs at once.

    ``X`` is a (N, num_inputs) 0/1 array; returns (N, num_outputs) uint8.
    The rows are checked, bit-sliced 64 to a machine word
    (:func:`_pack_rows`), evaluated by :func:`_eval_packed` and unpacked.
    """
    X = _as_bits(X, (None, c.num_inputs), "batch")
    return _unpack_rows(_eval_packed(c, _pack_rows(X)), len(X))


def _eval_packed(c: Circuit, P: np.ndarray) -> np.ndarray:
    """Evaluate bit-sliced inputs: the packed entry behind :func:`eval_batch`.

    ``P`` is (num_inputs, words) uint64, and bit r % 64 of ``P[i, r // 64]``
    is input i of row r; returns (num_outputs, words) uint64 in the same
    layout.  Words go level by level, in chunks sized so the gate values
    stay near _CHUNK_BYTES.  ``P`` is trusted: every bit is a row's bit.

    The call allocates its scratch once: the gate values of one chunk and
    two operand buffers as wide as the schedule's widest group.  Every chunk
    reuses them.  A group gathers its operands into the buffers with
    ``ndarray.take`` and writes its op straight into its own gate rows, so
    no group allocates.  The buffers are flat and viewed at each chunk's
    width, because ``take`` copies through a temporary unless its source and
    ``out`` are C-contiguous; its "clip" mode skips the bounds check, which
    would copy too.  Operand slots always lie below the group's own.
    """
    s = c._schedule()
    n, words = c.num_gates, P.shape[1]
    out = np.empty((len(c.outputs), words), dtype=np.uint64)
    out_slots = s.slot[c.outputs]
    in_slots = s.src0[: s.inputs_end]
    consts = np.where(s.src0[s.inputs_end : s.consts_end] == 1, _ALL_ONES, 0)[:, None]
    step = max(1, _CHUNK_BYTES // (8 * max(1, n)))
    width = min(step, words)
    # allocated apart: one block for all three raised nc0-graphs' peak RSS
    # in perfbench from 62.8 to 64.2 MB
    gate_buf = np.empty(n * width, dtype=np.uint64)
    buf0 = np.empty(s.widest * width, dtype=np.uint64)
    buf1 = np.empty(s.widest * width, dtype=np.uint64)
    for start in range(0, words, step):
        w = min(step, words - start)
        vals = gate_buf[: n * w].reshape(n, w)
        op0 = buf0[: s.widest * w].reshape(s.widest, w)
        op1 = buf1[: s.widest * w].reshape(s.widest, w)
        vals[: s.inputs_end] = P[in_slots, start : start + w]
        vals[s.inputs_end : s.consts_end] = consts
        for kind, lo, hi in s.groups:
            a = vals.take(s.src0[lo:hi], 0, op0[: hi - lo], "clip")
            if kind == NOT:
                np.invert(a, out=vals[lo:hi])
            else:
                b = vals.take(s.src1[lo:hi], 0, op1[: hi - lo], "clip")
                _BINARY_OPS[kind](a, b, out=vals[lo:hi])
        out[:, start : start + w] = vals.take(out_slots, 0)
    return out


def _block(width: int) -> int:
    """Rows per pack or unpack step: a multiple of 64 whose bits, a byte
    each, fill about _BLOCK_BYTES, so each transpose stays in cache."""
    return 64 * max(1, _BLOCK_BYTES // (64 * max(1, width)))


def _pack_rows(X: np.ndarray) -> np.ndarray:
    """(N, m) bits as (m, ceil(N/64)) bit-sliced words, zero past row N."""
    n, m = X.shape
    packed = np.zeros((m, 8 * -(-n // 64)), dtype=np.uint8)
    step = _block(m)
    for start in range(0, n, step):
        bits = np.ascontiguousarray(X[start : start + step].T)
        packed[:, start // 8 : start // 8 + -(-bits.shape[1] // 8)] = np.packbits(
            bits, axis=1, bitorder="little")
    return packed.view("<u8")


def _unpack_rows(P: np.ndarray, n: int) -> np.ndarray:
    """The first n rows of bit-sliced words P as (n, len(P)) uint8 bits."""
    raw = np.ascontiguousarray(P, dtype="<u8").view(np.uint8)
    out = np.empty((n, len(P)), dtype=np.uint8)
    step = _block(len(P))
    for start in range(0, n, step):
        stop = min(start + step, n)
        out[start:stop] = np.unpackbits(raw[:, start // 8 : -(-stop // 8)], axis=1,
                                        count=stop - start, bitorder="little").T
    return out


def _packed_rows(P: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Just the given rows of bit-sliced words P, as (len(rows), len(P)) bits."""
    shift = (rows % 64).astype(np.uint64)
    return ((P[:, rows // 64] >> shift) & np.uint64(1)).T.astype(np.uint8)


# (j, mask) per round of a 64 x 64 bit transpose; the mask holds the low j
# bits of every 2j-bit group
_TRANSPOSE_ROUNDS = [(j, np.uint64(mask)) for j, mask in (
    (32, 0x00000000FFFFFFFF), (16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
    (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333), (1, 0x5555555555555555))]


def _row_keys(P: np.ndarray, rows: int) -> np.ndarray:
    """The first ``rows`` rows of bit-sliced words P as (rows, ceil(n/64))
    uint64 keys: bit i % 64 of key word i // 64 is bit i of the row.

    Each 64 x 64 bit block of P (64 bits of 64 rows) is transposed in six
    rounds; round j swaps the off-diagonal j x j blocks of every 2j x 2j
    block, on all words at once.
    """
    n, words = P.shape
    k = -(-n // 64)
    A = np.zeros((64 * k, words), dtype=np.uint64)
    A[:n] = P
    for j, mask in _TRANSPOSE_ROUNDS:
        pairs = A.reshape(32 * k // j, 2, j, words)
        lo, hi = pairs[:, 0], pairs[:, 1]
        t = ((lo >> j) ^ hi) & mask
        lo ^= t << j
        hi ^= t
    return A.reshape(k, 64, words).transpose(2, 1, 0).reshape(64 * words, k)[:rows]


def _distinct_rows(P: np.ndarray, rows: int) -> tuple:
    """``(words, inverse)``: the distinct rows among the first ``rows`` of
    bit-sliced words P as (d, len(P)) uint8 bits, and each row's index
    into them.

    Rows are grouped by their :func:`_row_keys` with 1-D ``np.unique``, one
    key word at a time; only the d distinct words are unpacked.
    """
    keys = _row_keys(P, rows)
    inverse = np.zeros(rows, dtype=np.intp)
    for j, col in enumerate(keys.T):  # split every class by the next key word
        values, split = np.unique(col, return_inverse=True)
        inverse = inverse * len(values) + split
        if j:  # renumber the classes 0, 1, ...
            inverse = np.unique(inverse, return_inverse=True)[1]
    first = np.zeros(inverse.max() + 1 if rows else 0, dtype=np.intp)
    first[inverse] = np.arange(rows)
    raw = np.ascontiguousarray(keys[first], dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, count=len(P), bitorder="little"), inverse


# bit r of _LOW_INPUTS[i] is bit i of r: inputs 0-5 of any 64 consecutive rows
_LOW_INPUTS = np.array([sum(1 << r for r in range(64) if r >> i & 1) for i in range(6)],
                       dtype=np.uint64)


def _all_packed(m: int, words: int = 1 << 10) -> Iterator[tuple]:
    """Every length-m input in numeric order, bit-sliced: yields (P, rows)
    with P holding ``rows`` rows in up to ``words`` words.  Bit i of the row
    index is input i, so rows come out in order of the integer whose LSB is
    input 0.

    Row 64w + r has inputs i < 6 from bit i of r, the same word for every
    w, and inputs i >= 6 from bit i - 6 of w, a word of all ones or all
    zeros.  For m < 6 there is one partial word.
    """
    total = 1 << m
    shifts = np.arange(max(0, m - 6), dtype=np.uint64)[:, None]
    for start in range(0, -(-total // 64), words):
        w = np.arange(start, min(start + words, -(-total // 64)), dtype=np.uint64)
        P = np.empty((m, len(w)), dtype=np.uint64)
        P[:6] = _LOW_INPUTS[:m, None]
        P[6:] = ((w >> shifts) & 1) * _ALL_ONES
        yield P, min(total - 64 * start, 64 * len(w))


def circuit_range(c: Circuit, budget: int = 1 << 24) -> set[bytes]:
    """Exhaustive range of the circuit: each output word as the bytes of its
    bits, one 0/1 byte per output.

    Every input is evaluated bit-sliced, and only each chunk's distinct
    output words (:func:`_distinct_rows`) are unpacked.
    """
    if 1 << c.num_inputs > budget:
        raise CircuitError(
            f"range enumeration needs 2^{c.num_inputs} evaluations, over budget {budget}"
        )
    seen: set[bytes] = set()
    for P, rows in _all_packed(c.num_inputs):
        words, _ = _distinct_rows(_eval_packed(c, P), rows)
        seen.update(row.tobytes() for row in words)
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
    # Operands are gathered into per-call buffers, flat so that each group's
    # (2, width) view is C-contiguous and ``take`` fills it without a copy.
    blocks = np.zeros((2, c.num_gates), dtype=np.int32)
    types = np.zeros((2, c.num_gates), dtype=np.int8)
    bufs = [np.empty(2 * s.widest, dtype=d) for d in (np.int32, np.int8, np.int32, np.int8)]
    for kind, lo, hi in s.groups:
        ba, ta, bb, tb = (buf[: 2 * (hi - lo)].reshape(2, hi - lo) for buf in bufs)
        blocks.take(s.src0[lo:hi], 1, ba, "clip")
        types.take(s.src0[lo:hi], 1, ta, "clip")
        if kind == NOT:
            blocks[:, lo:hi] = ba[::-1]
            types[:, lo:hi] = ta[::-1]
            continue
        blocks.take(s.src1[lo:hi], 1, bb, "clip")
        types.take(s.src1[lo:hi], 1, tb, "clip")
        t = _BLOCK_TYPES[kind]
        ba += ta != t
        bb += tb != t
        np.maximum(ba, bb, out=blocks[:, lo:hi])
        types[:, lo:hi] = t
    return int(blocks[0, s.slot[c.outputs]].max())


def cone_sizes(c: Circuit) -> list[int]:
    """Per-output count of distinct reachable INPUT gates.

    One pass in gate-id order, which is topological, builds every gate's
    cone as a frozenset; a NOT shares its operand's set.  The cost scales
    with the cone mass of all gates, read or not (a parsed circuit may hold
    gates no output reads), so this is meant for circuits with small cones
    (the NC0 families) or moderate overall size.
    """
    cones = []
    for k, a, b in zip(c.kinds, c.arg0, c.arg1):
        if k == INPUT:
            cones.append(frozenset((a,)))
        elif k == CONST:
            cones.append(frozenset())
        elif k == NOT:
            cones.append(cones[a])
        else:
            cones.append(cones[a] | cones[b])
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


# the bytes a canonical gate line is made of
_GATE_BYTES = b"0123456789 \n" + bytes(sorted(set("".join(_KIND_NAMES).encode())))
# each kind's name length; its name, padded with spaces to one little-endian
# 8-byte word; and the mask of the word's bytes that hold the name and the
# space after it
_NAME_LENS = np.array([len(n) for n in _KIND_NAMES])
_NAME_WORDS = np.array([int.from_bytes(n.ljust(8).encode(), "little")
                        for n in _KIND_NAMES], dtype=np.uint64)
_NAME_MASKS = np.array([(1 << 8 * (len(n) + 1)) - 1 for n in _KIND_NAMES],
                       dtype=np.uint64)
# the kind a name starts with each byte, or -1
_KIND_OF_BYTE = np.full(256, -1, dtype=np.int8)
_KIND_OF_BYTE[[ord(n[0]) for n in _KIND_NAMES]] = range(len(_KIND_NAMES))
# 10, 100, ..., 10^9: a number below 2^32 has 1 + searchsorted(v, "right")
# digits
_POW10 = 10 ** np.arange(1, 10, dtype=np.uint32)
# longest number the scan reads, as one 8-byte word: every input index
# (MAX_INPUTS < 10^8) and the ids of the first 10^8 gates; a longer number
# is left to _gate_line
_SCAN_DIGITS = 8
# byte masks for _read_number, over the bytes of a little-endian word
_ZERO_BYTES = np.uint64(int.from_bytes(b"0" * 8, "little"))
_BIT_0X40 = np.uint64(int.from_bytes(b"\x40" * 8, "little"))
# (scale, shift, mask): join digit pairs, then pairs of pairs, then quads
_DIGIT_JOINS = tuple((np.uint64(10 ** k), np.uint64(8 * k), np.uint64(mask))
                     for k, mask in ((1, 0x00FF00FF00FF00FF),
                                     (2, 0x0000FFFF0000FFFF),
                                     (4, 0x00000000FFFFFFFF)))


def serialize(c: Circuit) -> str:
    """The text format of a structurally valid circuit.

    The text is laid out in one byte buffer of spaces: each gate line's
    length comes from its digit counts and kind, one ``cumsum`` places the
    lines, and the kind names, then the digits, then the newlines, header
    and outputs line are scattered in.
    """
    kinds, a0, a1 = c._arrays()
    g = len(kinds)
    if g > 1 << 32:
        raise CircuitError(f"{g} gates: serialize writes at most 2^32")
    head = f"circuit {c.num_inputs} {g} {len(c.outputs)}\n".encode()
    tail = (("outputs " + " ".join(map(str, c.outputs))).rstrip() + "\n").encode()
    binary = kinds >= AND
    # ids, first and second operands; all are below max(g, MAX_INPUTS)
    nums = np.stack([np.arange(g), a0, np.where(binary, a1, 0)],
                    dtype=np.uint32, casting="unsafe")
    digits = np.searchsorted(_POW10, nums, side="right") + 1
    digits[2] *= binary  # a unary gate has no second operand
    name_lens = _NAME_LENS[kinds]
    lens = digits.sum(axis=0) + binary + name_lens + 3  # with spaces and \n
    ends = np.cumsum(lens) + len(head)
    size = (int(ends[-1]) if g else len(head)) + len(tail)
    names = ends - lens + digits[0] + 1
    # the last digit of each id, first operand and second operand
    at = np.stack([names - 2, names + name_lens + digits[1], ends - 2])
    # 8 spare bytes take the digits a number does not have and the last
    # name's word; a name's word runs at most into the next line's id, whose
    # digits are written after it
    buf = np.full(size + 8, ord(" "), dtype=np.uint8)
    np.ndarray((size + 1,), dtype="<u8", buffer=buf, strides=(1,))[
        names] = _NAME_WORDS[kinds]
    for row, count, pos in zip(nums, digits, at):
        for j in range(int(count.max(initial=0))):
            higher = row // 10
            buf[np.where(count > j, pos - j, size)] = row - higher * 10 + ord("0")
            row = higher
    buf[ends - 1] = ord("\n")
    buf[:len(head)] = np.frombuffer(head, dtype=np.uint8)
    buf[size - len(tail):size] = np.frombuffer(tail, dtype=np.uint8)
    return str(buf[:size].data, "ascii")


def parse(text: str) -> Circuit:
    """Read the text format.  Only its syntax is checked here; a structural
    fault found by :class:`Circuit` is re-raised naming its line (gate i is
    on line i + 2).

    Gate lines made only of digits, kind-name letters, spaces and newlines
    are read in one whole-array pass (:func:`_scan_gates`); any other text
    is read line by line, as ``str.splitlines`` and ``str.split`` see it.
    """
    return _parse(text, 0)


def _parse(text: str, cut: int) -> Circuit:
    """:func:`parse` of a text that had its line ``cut`` (from 1; 0 for none)
    taken out: every error names its line in the text before the cut."""
    try:
        split = _canonical_split(text)
        if split is None:
            lines = text.splitlines()
            if not lines:
                raise ParseError("empty circuit text")
            head, body, tail = lines[0], lines[1:-1], lines[-1]
            count = len(lines) - 2
        else:
            head, body, tail = split
            count = body.count(b"\n")
        head = head.split()
        if len(head) != 4 or head[0] != "circuit":
            raise ParseError("expected 'circuit <inputs> <gates> <outputs>'", 1)
        try:
            num_inputs, num_gates, num_outputs = map(int, head[1:])
        except ValueError:
            raise ParseError("non-integer header field", 1) from None
        if count != num_gates:
            raise ParseError(
                f"expected {num_gates} gate lines plus outputs, got {count}")
        if split is None:
            kinds, arg0, arg1 = array("b"), array("q"), array("q")
            for gid, line in enumerate(body):
                k, a, b = _gate_line(line, gid)
                kinds.append(k)
                arg0.append(a)
                arg1.append(b)
        else:
            kinds, arg0, arg1 = _scan_gates(body, count)
        last = num_gates + 2  # the outputs line
        out_toks = tail.split()
        if not out_toks or out_toks[0] != "outputs":
            raise ParseError("expected final 'outputs' line", last)
        try:
            outputs = [int(t) for t in out_toks[1:]]
        except ValueError:
            raise ParseError("non-integer output id", last) from None
        if len(outputs) != num_outputs:
            raise ParseError(
                f"header promised {num_outputs} outputs, got {len(outputs)}", last)
        try:
            return Circuit(num_inputs, kinds, arg0, arg1, outputs)
        except StructureError as exc:
            # a fault outside the gates lies in the input count or the outputs
            line = (exc.gate + 2 if exc.gate is not None
                    else 1 if not 0 <= num_inputs <= MAX_INPUTS else last)
            raise StructureError(f"line {line + (0 < cut <= line)}: {exc}") from None
    except ParseError as exc:
        if not 0 < cut <= (exc.line or 0):
            raise
        raise ParseError(str(exc).partition(": ")[2], exc.line + 1) from None


def _canonical_split(text: str):
    """``(first line, gate lines as bytes, last line)`` when the gate lines
    hold only the bytes of canonical gate lines and the first and last lines
    hold no line break, so that newlines alone end the lines; else None."""
    first = text.find("\n")
    last = text.rfind("\n", 0, len(text) - 1)
    if first < 0 or last < first:
        return None
    head, tail = text[:first], text[last + 1:]
    body = text[first + 1:last + 1].encode()
    if (head.splitlines() != [head]
            or tail.splitlines() != [tail.removesuffix("\n")]
            or body.translate(None, _GATE_BYTES)):
        return None
    return head, body, tail


def _gate_line(line: str, gid: int) -> tuple:
    """Gate ``gid``'s line as ``(kind, a, b)``, read token by token, or the
    ParseError the line earns."""
    toks = line.split()
    kind = _NAME_TO_KIND.get(toks[1]) if len(toks) > 1 else None
    if kind is None:
        raise ParseError(f"expected '<id> <kind> <operands>', kind one of "
                         f"{', '.join(_KIND_NAMES)}", gid + 2)
    binary = kind >= AND
    if len(toks) != 3 + binary:
        raise ParseError(f"{toks[1]} takes {1 + binary} operand(s)", gid + 2)
    try:
        idx, a, b = int(toks[0]), int(toks[2]), int(toks[3]) if binary else 0
    except ValueError:
        idx = a = None
    if a is None or not all(-(1 << 63) <= v < 1 << 63 for v in (a, b)):
        raise ParseError("gate id and operands must be 64-bit integers",
                         gid + 2)
    if idx != gid:
        raise ParseError(f"expected gate id {gid}, got {idx}", gid + 2)
    return kind, a, b


def _scan_gates(body: bytes, g: int) -> tuple:
    """The gate arrays of ``body``: ``g`` gate lines, each ended by a
    newline, made only of digits, kind-name letters and spaces.

    One pass over the bytes finds the tokens (the runs between spaces and
    newlines) and decides every canonical line: an id equal to its line's
    gate number, a kind name, one or two operands, single spaces and numbers
    of at most 8 digits.  Any other line is handed to :func:`_gate_line`,
    in order, so the first bad line raises just as a line-by-line read would.
    """
    if not g:
        return array("b"), array("q"), array("q")
    n = len(body)
    # padded so that no word read below leaves the buffer
    b = np.frombuffer(body + bytes(8), dtype=np.uint8)
    # words[i]: the 8 bytes from offset i as one little-endian word
    words = np.ndarray((n + 1,), dtype="<u8", buffer=b, strides=(1,))
    seps = np.flatnonzero(b[:n] <= ord(" "))  # one ends each token
    nl_tok = np.flatnonzero(b[seps] == ord("\n"))  # each line's last token
    first = np.concatenate(([0], nl_tok[:-1] + 1))  # each line's id token
    line_ends = seps[nl_tok]

    def token_end(k):  # where each line's token k ends, if it has one
        return seps[np.minimum(first + k, len(seps) - 1)]

    # the id, then the kind: a name its first byte picks, then a space
    end = token_end(0)
    starts = np.concatenate(([0], line_ends[:-1] + 1))
    ids, bad = _read_number(words, starts, end - starts)
    kinds = _KIND_OF_BYTE[b[end + 1]]
    binary = kinds >= AND
    ok = (((words[end + 1] ^ _NAME_WORDS[kinds]) & _NAME_MASKS[kinds]) == 0) & (
        nl_tok - first == 2 + binary) & ~bad & (ids == np.arange(g))
    # the operands
    starts = token_end(1) + 1
    end = token_end(2)
    arg0, bad = _read_number(words, starts, end - starts)
    ok &= ~bad
    arg1, bad = _read_number(words, end + 1, token_end(3) - end - 1)
    ok &= ~(bad & binary)
    arg1[~binary] = 0
    for gid in np.flatnonzero(~ok).tolist():
        start = int(line_ends[gid - 1]) + 1 if gid else 0
        line = body[start:int(line_ends[gid])].decode()
        kinds[gid], arg0[gid], arg1[gid] = _gate_line(line, gid)
    gates = array("b"), array("q"), array("q")
    for column, values in zip(gates, (kinds, arg0, arg1)):
        column.frombytes(memoryview(values).cast("B"))
    return gates


def _read_number(words: np.ndarray, starts: np.ndarray, lens: np.ndarray):
    """The numbers of ``lens`` digits that start at ``starts``, and a mask of
    the tokens that are not 1 to 8 digits.

    Each token's word is shifted so that its digits fill the top bytes, with
    zero bytes below as leading zeros, and XOR-ed with '0' bytes: a digit
    byte then holds its value and a kind-name letter has bit 0x40 set.
    Three multiply-adds join neighbouring digits into 2-, 4- and 8-digit
    values.  The steps work in place, on two arrays of the input's size.
    """
    bad = (lens < 1) | (lens > _SCAN_DIGITS)
    shift = (-lens & 7).astype(np.uint64)  # 8 - lens bytes, for 1 to 8
    shift <<= np.uint64(3)
    d = words[starts]
    d <<= shift
    np.left_shift(_ZERO_BYTES, shift, out=shift)
    d ^= shift
    np.bitwise_and(d, _BIT_0X40, out=shift)
    bad |= shift != 0
    for scale, width, mask in _DIGIT_JOINS:
        np.right_shift(d, width, out=shift)
        d *= scale
        d += shift
        d &= mask
    return d.view(np.int64), bad
