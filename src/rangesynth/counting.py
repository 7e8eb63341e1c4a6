"""Threshold and exact-count proof systems via integer interval labels.

On the interval tree over (0, n] (see :mod:`rangesynth.intervals`) a label is
a claimed count of ones: the root's is the target t, a leaf's is its word
bit, and encodings above the interval length clamp to it.  A node is
consistent when its label is <= (threshold) or == (exact) its children's
sum.  An inconsistent path patches with all ones (threshold) or with
1^l 0^* from the topmost inconsistent node's label l (exact count).

Carry-lookahead arithmetic over doubling-table range-ANDs keeps the depth
logarithmic in the label width, hence O(log log n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import CircuitBuilder, _as_bits, bits_for
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


def _ge_const(b: CircuitBuilder, xs, k: int) -> int:
    """xs >= k for a constant k."""
    return _leq(b, _const_bits(b, k, max(len(xs), k.bit_length())), xs)


# ---------------------------------------------------------------------------
# synthesis


def _build(kind: str, n: int, t: int):
    _check_target(kind, n, t)
    plan = _plan(n)
    slotted = plan.bits > 0
    layout = CountLayout(n=n, m=plan.m, counts=list(zip(*(
        a[slotted].tolist() for a in (plan.lo, plan.hi, plan.offset, plan.bits)))))
    lo, hi, parent, right, offset, bits = (a.tolist() for a in (
        plan.lo, plan.hi, plan.parent, plan.right, plan.offset, plan.bits))

    b = CircuitBuilder(plan.m)
    word = b.inputs(0, n)

    def clamped_label(u: int):
        if parent[u] < 0:
            return _const_bits(b, t, max(1, bits_for(n + 1)))
        if right[u] < 0:
            return [word[lo[u]]]
        raw = [b.input(offset[u] + bits[u] - 1 - i) for i in range(bits[u])]
        return _clamp(b, raw, hi[u] - lo[u])

    labels = [clamped_label(u) for u in range(len(lo))]

    # a label against its children's sum, or a one-leaf root against its
    # word bit; every other leaf is its word bit and always consistent
    rel = _leq if kind == "threshold" else _eq
    cons: list = [None] * len(lo)
    for u in range(len(lo)):
        if right[u] >= 0:
            total = _add(b, labels[u + 1], labels[right[u]])
        elif parent[u] < 0:
            total = [word[0]]
        else:
            continue
        cons[u] = rel(b, labels[u], total)

    if kind == "threshold":
        # all-ones patch: a position is 1 unless its whole path is consistent
        # (the path of a one-leaf root is the root alone)
        checked = [u for u in range(len(lo)) if cons[u] is not None]
        pathand = chain_ands(b, parent, checked, cons)
        outputs = [b.or_(word[lo[u]], b.not_(pathand[u if parent[u] < 0 else parent[u]]))
                   for u in np.flatnonzero(plan.right < 0).tolist()]
    else:
        # 1^l 0^* patch from the topmost inconsistent node's label l
        one = b.const(1)
        outputs = patched_outputs(
            b, plan, lambda u: one if cons[u] is None else cons[u], word,
            lambda u, k: _ge_const(b, labels[u], k - lo[u]),
        )
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
