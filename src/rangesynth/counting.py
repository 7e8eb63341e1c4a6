"""Threshold and exact-count proof systems via integer interval labels.

On the interval tree over (0, n] (see :mod:`rangesynth.intervals`) a label is
a claimed count of ones: the root's is the target t, a leaf's is its word
bit, and encodings above the interval length clamp to it.  A node is
consistent when its label is <= (threshold) or == (exact) its children's
sum.  An inconsistent path patches with all ones (threshold) or with
1^l 0^* from the topmost inconsistent node's label l (exact count).

Carry-lookahead arithmetic over doubling-table range-ANDs keeps the depth
logarithmic in the label width, hence O(log log n).  Exact count's patch
reads one thermometer per node, the wires [l >= j] for every j, built by
splitting l into a high and a low half: O(|u|) AND/OR gates for node u and
depth +2 per halving.  The gadgets (clamp, children's sum with the consistency
check, thermometer) are written once, gate by gate; each distinct shape is
recorded as a :meth:`CircuitBuilder.stamp` template, and every node of that
shape is one row of a stamp.  The root, whose label is the constant t, runs
the gadget code on the builder itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .circuit import OR, CircuitBuilder, _as_bits, _record, bits_for
from .intervals import PLAN_CACHE, Plan, chain_ands, patched_outputs
from .languages import LanguageError
from .regular import WitnessError

__all__ = [
    "CountLayout",
    "synth_threshold",
    "synth_exact_count",
    "witness_count",
]


@dataclass
class CountLayout:
    """Proof bit map: word bits first, then per-internal-node count slots.

    ``counts`` holds ``(lo, hi, offset, bits)`` per slotted node in
    pre-order.  The root (count hardwired to t) and the leaves (counted by
    the word bits themselves) carry no slots.
    """

    n: int
    m: int
    counts: list

    def to_text(self) -> str:
        lines = [f"word 0 {self.n}"]
        for lo, hi, off, bits in self.counts:
            lines.append(f"count {lo} {hi} {off} {bits}")
        return "\n".join(lines) + "\n"


def _check_target(kind: str, n: int, t: int):
    """Refuse a slice no proof system is built for, before any plan is."""
    if kind not in ("threshold", "exact"):
        raise LanguageError(f"unknown counting kind {kind!r}")
    if kind == "threshold" and not 1 <= t <= n:
        raise LanguageError(f"threshold needs 1 <= t <= n, got t={t}, n={n}")
    if kind == "exact" and not 0 <= t <= n:
        raise LanguageError(f"exact count needs 0 <= t <= n, got t={t}, n={n}")
    if n < 1:
        raise LanguageError(f"counting needs n >= 1, got n={n}")


@lru_cache(maxsize=PLAN_CACHE)
def _plan(n: int) -> Plan:
    """The count slots over (0, n]: none for the root and the leaves."""
    # frexp's exponent of a length l >= 1 is l.bit_length() = bits_for(l + 1)
    return Plan(n, lambda lo, hi, parent: np.where(
        (parent < 0) | (hi - lo == 1), 0, np.frexp(hi - lo)[1]), n)


# ---------------------------------------------------------------------------
# shallow arithmetic helpers (wire lists are LSB-first)


class _RangeAnd:
    """Doubling table answering AND-of-a-slice queries over fixed wires."""

    def __init__(self, b: CircuitBuilder, wires):
        self.b = b
        self.tab = [list(wires)]
        size = 1
        while size * 2 <= len(wires):
            prev = self.tab[-1]
            size *= 2
            self.tab.append(
                [b.and_(prev[i], prev[i + size // 2])
                 for i in range(len(wires) - size + 1)]
            )

    def query(self, lo: int, hi: int) -> int:
        """AND of wires[lo:hi] (const 1 when empty)."""
        if lo >= hi:
            return self.b.const(1)
        k = (hi - lo).bit_length() - 1
        left = self.tab[k][lo]
        right = self.tab[k][hi - (1 << k)]
        return self.b.and_(left, right)


def _pad(b: CircuitBuilder, xs, length: int):
    return list(xs) + [b.const(0)] * (length - len(xs))


def _add(b: CircuitBuilder, xs, ys):
    """Carry-lookahead sum of two wire-lists; result has one extra bit."""
    L = max(len(xs), len(ys))
    xs, ys = _pad(b, xs, L), _pad(b, ys, L)
    gen = [b.and_(x, y) for x, y in zip(xs, ys)]
    prop = [b.xor(x, y) for x, y in zip(xs, ys)]
    ptab = _RangeAnd(b, prop)
    carries = [b.const(0)]
    for i in range(1, L + 1):
        carries.append(b.or_tree(
            [b.and_(gen[j], ptab.query(j + 1, i)) for j in range(i)]
        ))
    out = [b.xor(prop[i], carries[i]) for i in range(L)]
    out.append(carries[L])
    return out


def _leq(b: CircuitBuilder, xs, ys) -> int:
    """xs <= ys as unsigned numbers."""
    L = max(len(xs), len(ys))
    xs, ys = _pad(b, xs, L), _pad(b, ys, L)
    eq = [b.not_(b.xor(x, y)) for x, y in zip(xs, ys)]
    lt = [b.and_(b.not_(x), y) for x, y in zip(xs, ys)]
    etab = _RangeAnd(b, eq)
    terms = [b.and_(lt[i], etab.query(i + 1, L)) for i in range(L)]
    terms.append(etab.query(0, L))
    return b.or_tree(terms)


def _eq(b: CircuitBuilder, xs, ys) -> int:
    L = max(len(xs), len(ys))
    xs, ys = _pad(b, xs, L), _pad(b, ys, L)
    return b.and_tree([b.not_(b.xor(x, y)) for x, y in zip(xs, ys)])


def _const_bits(b: CircuitBuilder, value: int, length: int):
    return [b.const((value >> i) & 1) for i in range(length)]


def _clamp(b: CircuitBuilder, xs, cap: int):
    """min(xs, cap) bit-by-bit, for the out-of-range encoding convention."""
    if (1 << len(xs)) - 1 <= cap:
        return list(xs)
    cap_bits = _const_bits(b, cap, len(xs))
    le = _leq(b, xs, cap_bits)
    over = b.not_(le)
    return [
        b.or_(b.and_(le, x), b.and_(over, c))
        for x, c in zip(xs, cap_bits)
    ]


def _thermometer(b: CircuitBuilder, xs) -> list:
    """[x >= j] for j = 1 .. 2^w - 1, the w-bit number x being xs: x splits
    into its low w // 2 bits l and the rest h, and [x >= j] is [h >= j_h]
    when j's low part j_l is 0, else [h > j_h] OR ([h >= j_h] AND
    [l >= j_l])."""
    if len(xs) == 1:
        return list(xs)
    cut = len(xs) // 2
    low, high = _thermometer(b, xs[:cut]), _thermometer(b, xs[cut:])
    ge = [b.const(1)] + high + [b.const(0)]  # ge[c] = [h >= c], c = 0 .. 2^(w - cut)
    mask = (1 << cut) - 1
    return [ge[j >> cut] if j & mask == 0
            else b.or_(ge[(j >> cut) + 1], b.and_(ge[j >> cut], low[(j & mask) - 1]))
            for j in range(1, 1 << len(xs))]


# ---------------------------------------------------------------------------
# the gadgets as stamp templates


@lru_cache(maxsize=256)
def _clamp_template(stride: int, w: int, cap: int) -> tuple:
    """A w-bit label clamped to cap, read from the first of ``stride`` wires."""
    return _record(stride, lambda b, xs: _clamp(b, xs[:w], cap))


@lru_cache(maxsize=256)
def _cons_template(kind: str, stride: int, w: int, left: int, right: int) -> tuple:
    """A w-bit label against the sum of its children's, the three read from
    blocks of ``stride`` wires."""
    rel = _leq if kind == "threshold" else _eq
    return _record(3 * stride, lambda b, x: rel(
        b, x[:w], _add(b, x[stride:stride + left], x[2 * stride:2 * stride + right])))


@lru_cache(maxsize=64)
def _thermometer_template(w: int) -> tuple:
    return _record(w, _thermometer)


_OR = (((OR, -1, -2),), 0)


def _stamp_by_key(b: CircuitBuilder, template, keys, leaves) -> np.ndarray:
    """Stamp row r of ``leaves`` with ``template(*keys[r])``, all rows in one
    call and in order; keys are rows of nonnegative ints."""
    dims = tuple(keys.max(axis=0) + 1)
    distinct, which = np.unique(np.ravel_multi_index(keys.T, dims), return_inverse=True)
    return b.stamp([template(*key) for key in zip(*np.unravel_index(distinct, dims))],
                   leaves, which)


# ---------------------------------------------------------------------------
# synthesis


def _build(kind: str, n: int, t: int):
    _check_target(kind, n, t)
    plan = _plan(n)
    slotted = plan.bits > 0
    layout = CountLayout(n=n, m=plan.m, counts=list(zip(*(
        a[slotted].tolist() for a in (plan.lo, plan.hi, plan.offset, plan.bits)))))

    b = CircuitBuilder(plan.m)
    word = b.inputs(0, n)
    zero, one = b.const(0), b.const(1)
    # proof bit p >= n is wire proof[p - n], and proof[-1] is CONST 0
    proof = np.asarray(b.inputs(n, plan.m - n) + [zero], dtype=np.int64)
    nodes = np.flatnonzero(slotted)  # the non-root internal nodes, in pre-order
    width = np.where(plan.right < 0, 1, plan.bits)  # label bits; not the root's
    stride = max(1, int(plan.bits.max()))

    def literals(wires, nots):
        """Rows of template leaves (see :func:`circuit._record`)."""
        return np.column_stack([np.full(len(wires), zero), np.full(len(wires), one),
                                wires, nots])

    # labels as rows of wires, LSB first and padded with CONST 0: a leaf's
    # is its word bit, a slotted node's its proof bits clamped to its length
    labels = np.full((len(plan.lo), stride), zero, dtype=np.int64)
    leaves = np.flatnonzero(plan.right < 0)
    labels[leaves, 0] = np.asarray(word)[plan.lo[leaves]]
    # a label against its children's sum, or a one-leaf root against its
    # word bit; every other leaf is its word bit and always consistent
    cons = np.full(len(plan.lo), -1, dtype=np.int64)  # -1: no check
    if len(nodes):
        bit = np.arange(stride)
        raw = proof[np.where(bit < plan.bits[nodes, None],
                             (plan.offset + plan.bits - 1 - n)[nodes, None] - bit, -1)]
        cap = (plan.hi - plan.lo)[nodes]
        clamped = _stamp_by_key(b, partial(_clamp_template, stride),
                                np.column_stack([plan.bits[nodes], cap]),
                                literals(raw, b.nots(raw)))
        labels[nodes] = np.where(clamped < 0, zero, clamped)
        negated = b.nots(labels)
        kids = np.column_stack([nodes, nodes + 1, plan.right[nodes]])
        cons[nodes] = _stamp_by_key(
            b, partial(_cons_template, kind, stride), width[kids],
            literals(*(x[kids].reshape(len(nodes), 3 * stride) for x in (labels, negated))))
    root_label = _const_bits(b, t, max(1, bits_for(n + 1)))
    rel = _leq if kind == "threshold" else _eq
    if n == 1:
        cons[0] = rel(b, root_label, word)
    else:
        cons[0] = rel(b, root_label, _add(
            b, *(labels[u, :width[u]].tolist() for u in (1, plan.right[0]))))

    if kind == "threshold":
        # all-ones patch: a position is 1 unless its whole path is consistent
        # (the path of a one-leaf root is the root alone)
        pathand = chain_ands(b, plan, np.flatnonzero(cons >= 0), cons)
        own = pathand[np.where(plan.parent[leaves] < 0, leaves, plan.parent[leaves])]
        outputs = b.stamp(_OR, np.column_stack([labels[leaves, 0], b.nots(own)]))
    else:
        # 1^l 0^* patch from the topmost inconsistent node's label l:
        # position k under node u reads [l >= k - lo[u]] off u's thermometer,
        # and the root's constant label gives CONST [t >= k]
        k = np.arange(1, n + 1)
        node, pos, bits = [np.zeros(n, dtype=np.int64)], [k], [np.where(t >= k, one, zero)]
        for w in sorted(set(plan.bits[nodes].tolist())):
            at = nodes[plan.bits[nodes] == w]
            ge = b.stamp(_thermometer_template(w), literals(labels[at, :w], negated[at, :w]))
            r, j = np.nonzero(np.arange(ge.shape[1]) < (plan.hi - plan.lo)[at, None])
            node.append(at[r])
            pos.append(plan.lo[at[r]] + j + 1)
            bits.append(ge[r, j])
        cons[cons < 0] = one
        outputs = patched_outputs(b, plan, cons, word, *map(np.concatenate, (node, pos, bits)))
    b.set_outputs(outputs.tolist())
    return b.build(), layout


def synth_threshold(n: int, t: int):
    """Proof system for words of length n with at least t ones."""
    return _build("threshold", n, t)


def synth_exact_count(n: int, t: int):
    """Proof system for words of length n with exactly t ones."""
    return _build("exact", n, t)


# ---------------------------------------------------------------------------
# witnesses


def witness_count(kind: str, n: int, t: int, word) -> np.ndarray:
    """Honest proof: the word plus true subword popcounts as labels."""
    _check_target(kind, n, t)
    word = _as_bits(word, (n,), "word", WitnessError)
    prefix = np.concatenate(([0], np.cumsum(word, dtype=np.int64)))
    ones = int(prefix[-1])
    if kind == "threshold" and ones < t:
        raise WitnessError(f"word has {ones} ones, below threshold {t}")
    if kind == "exact" and ones != t:
        raise WitnessError(f"word has {ones} ones, not exactly {t}")
    plan = _plan(n)
    proof = np.empty(plan.m, dtype=np.uint8)
    proof[:n] = word
    plan.write(proof, prefix[plan.hi] - prefix[plan.lo])
    return proof
