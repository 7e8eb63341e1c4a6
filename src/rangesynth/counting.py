"""Threshold and exact-count proof systems via integer interval labels.

The interval tree over (0, n] carries, at every internal non-root node, a
claimed count of ones in that subword; the root count is hardwired to the
target t and leaves are the word bits themselves.  A node is consistent when
its count relates to the sum of its children's counts (<= for thresholds,
== for exact counts, with encodings above the interval length clamped to
it).  Consistent paths pass the word bit through; inconsistency patches the
output with the all-ones witness (threshold) or the 1^l 0^* witness of the
topmost inconsistent node (exact count), so the circuit range is exactly the
target slice.

The arithmetic is carry-lookahead style: range-ANDs of propagate/equality
bits come from a doubling table, keeping the depth logarithmic in the label
width (hence O(log log n)) with a constant number of alternations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, CircuitBuilder, _as_bits
from .intervals import Node, build_tree, chain_ands, leaf_for_position, preorder
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


def _slot_bits(length: int) -> int:
    return math.ceil(math.log2(length + 1))


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
                [b.and_f(prev[i], prev[i + size // 2])
                 for i in range(len(wires) - size + 1)]
            )

    def query(self, lo: int, hi: int) -> int:
        """AND of wires[lo:hi] (const 1 when empty)."""
        if lo >= hi:
            return self.b.const(1)
        k = (hi - lo).bit_length() - 1
        left = self.tab[k][lo]
        right = self.tab[k][hi - (1 << k)]
        return self.b.and_f(left, right)


def _pad(b: CircuitBuilder, xs, length: int):
    return list(xs) + [b.const(0)] * (length - len(xs))


def _add(b: CircuitBuilder, xs, ys):
    """Carry-lookahead sum of two wire-lists; result has one extra bit."""
    L = max(len(xs), len(ys))
    xs, ys = _pad(b, xs, L), _pad(b, ys, L)
    gen = [b.and_f(x, y) for x, y in zip(xs, ys)]
    prop = [b.xor_f(x, y) for x, y in zip(xs, ys)]
    ptab = _RangeAnd(b, prop)
    carries = [b.const(0)]
    for i in range(1, L + 1):
        carries.append(b.or_tree_f(
            [b.and_f(gen[j], ptab.query(j + 1, i)) for j in range(i)]
        ))
    out = [b.xor_f(prop[i], carries[i]) for i in range(L)]
    out.append(carries[L])
    return out


def _leq(b: CircuitBuilder, xs, ys) -> int:
    """xs <= ys as unsigned numbers."""
    L = max(len(xs), len(ys))
    xs, ys = _pad(b, xs, L), _pad(b, ys, L)
    eq = [b.not_f(b.xor_f(x, y)) for x, y in zip(xs, ys)]
    lt = [b.and_f(b.not_f(x), y) for x, y in zip(xs, ys)]
    etab = _RangeAnd(b, eq)
    terms = [b.and_f(lt[i], etab.query(i + 1, L)) for i in range(L)]
    terms.append(etab.query(0, L))
    return b.or_tree_f(terms)


def _eq(b: CircuitBuilder, xs, ys) -> int:
    L = max(len(xs), len(ys))
    xs, ys = _pad(b, xs, L), _pad(b, ys, L)
    return b.and_tree_f([b.not_f(b.xor_f(x, y)) for x, y in zip(xs, ys)])


def _const_bits(b: CircuitBuilder, value: int, length: int):
    return [b.const((value >> i) & 1) for i in range(length)]


def _clamp(b: CircuitBuilder, xs, cap: int):
    """min(xs, cap) bit-by-bit, for the out-of-range encoding convention."""
    if (1 << len(xs)) - 1 <= cap:
        return list(xs)
    le = _leq(b, xs, _const_bits(b, cap, len(xs)))
    over = b.not_f(le)
    cap_bits = _const_bits(b, cap, len(xs))
    return [
        b.or_f(b.and_f(le, x), b.and_f(over, c))
        for x, c in zip(xs, cap_bits)
    ]


def _ge_const(b: CircuitBuilder, xs, k: int) -> int:
    """xs >= k for a constant k."""
    return _leq(b, _const_bits(b, k, max(len(xs), k.bit_length())), xs)


# ---------------------------------------------------------------------------
# synthesis


def _build(kind: str, n: int, t: int):
    if kind == "threshold":
        if not (1 <= t <= n):
            raise LanguageError(f"threshold needs 1 <= t <= n, got t={t}, n={n}")
    else:
        if not (0 <= t <= n):
            raise LanguageError(f"exact count needs 0 <= t <= n, got t={t}, n={n}")

    tree = build_tree(0, n)
    nodes = preorder(tree)
    counts = []
    off = n
    for node in nodes:
        if node.parent is None or node.is_leaf:
            node.offset, node.bits = -1, 0
            continue
        bits = _slot_bits(node.length)
        counts.append((node.lo, node.hi, off, bits))
        node.offset, node.bits = off, bits
        off += bits
    layout = CountLayout(n=n, m=off, counts=counts)

    b = CircuitBuilder(layout.m)
    word = [b.input(i) for i in range(n)]

    def clamped_label(node: Node):
        if node.is_leaf:
            return [word[node.hi - 1]]
        if node.parent is None:
            return _const_bits(b, t, max(1, _slot_bits(n)))
        raw = [b.input(node.offset + node.bits - 1 - i) for i in range(node.bits)]
        return _clamp(b, raw, node.length)

    labels = {id(node): clamped_label(node) for node in nodes}

    internal = [node for node in nodes if not node.is_leaf]
    cons = {}
    for node in internal:
        total = _add(b, labels[id(node.left)], labels[id(node.right)])
        if kind == "threshold":
            cons[id(node)] = _leq(b, labels[id(node)], total)
        else:
            cons[id(node)] = _eq(b, labels[id(node)], total)

    if internal:
        pathand = chain_ands(b, internal, cons)

    outputs = []
    for k in range(1, n + 1):
        leaf = leaf_for_position(tree, k)
        if leaf.parent is None:  # n == 1: the root is the leaf
            ok = _leq(b, _const_bits(b, t, 1), [word[0]]) if kind == "threshold" \
                else _eq(b, _const_bits(b, t, 1), [word[0]])
            if kind == "threshold":
                outputs.append(b.or_f(word[0], b.not_f(ok)))
            else:
                outputs.append(b.or_f(
                    b.and_f(word[0], ok),
                    b.and_f(b.not_f(ok), b.const(1 if t >= 1 else 0)),
                ))
            continue
        allcons = pathand[id(leaf.parent)]
        if kind == "threshold":
            outputs.append(b.or_f(word[k - 1], b.not_f(allcons)))
        else:
            terms = [b.and_f(word[k - 1], allcons)]
            node = leaf
            while node.parent is not None:
                u = node.parent
                above = pathand[id(u.parent)] if u.parent is not None else b.const(1)
                topmost = b.and_f(b.not_f(cons[id(u)]), above)
                terms.append(b.and_f(topmost, _ge_const(b, labels[id(u)], k - u.lo)))
                node = u
            outputs.append(b.or_tree_f(terms))
    b.set_outputs(outputs)
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
    word = _as_bits(word, what="word")
    if len(word) != n:
        raise WitnessError(f"word length {len(word)} != {n}")
    ones = int(word.sum())
    if kind == "threshold":
        if ones < t:
            raise WitnessError(f"word has {ones} ones, below threshold {t}")
    elif kind == "exact":
        if ones != t:
            raise WitnessError(f"word has {ones} ones, not exactly {t}")
    else:
        raise LanguageError(f"unknown counting kind {kind!r}")

    tree = build_tree(0, n)
    nodes = preorder(tree)
    prefix = np.concatenate([[0], np.cumsum(word)])
    slots = []
    for node in nodes:
        if node.parent is None or node.is_leaf:
            continue
        slots.append((node, _slot_bits(node.length)))
    m = n + sum(bits for _, bits in slots)
    proof = np.zeros(m, dtype=np.uint8)
    proof[:n] = word
    off = n
    for node, bits in slots:
        value = int(prefix[node.hi] - prefix[node.lo])
        for i in range(bits):
            proof[off + i] = (value >> (bits - 1 - i)) & 1
        off += bits
    return proof
