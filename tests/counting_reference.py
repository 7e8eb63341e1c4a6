"""Per-node counting synthesis, the reference for the stamped build.

This is the gate-by-gate ``_build`` that :mod:`rangesynth.counting` had
before it stamped its gadgets: every node's clamp, children's sum and
consistency check run through the scalar builder calls, one node at a time.
Exact count's patch asks ``label(u) >= k - lo[u]`` either with one
carry-lookahead comparison per position (``patch="ge_const"``, the original
construction) or by reading u's thermometer (``patch="thermometer"``, the
construction the stamped build emits, built here gate by gate).
"""

import numpy as np

from rangesynth.circuit import CircuitBuilder, bits_for
from rangesynth.counting import (CountLayout, _add, _check_target, _clamp, _const_bits,
                                 _eq, _leq, _plan, _thermometer)
from tests.regular_reference import chain_ands, patched_outputs


def _ge_const(b: CircuitBuilder, xs, k: int) -> int:
    """xs >= k for a constant k."""
    return _leq(b, _const_bits(b, k, max(len(xs), k.bit_length())), xs)


def build(kind: str, n: int, t: int, patch: str = "ge_const"):
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
        if patch == "ge_const":
            def at_least(u, k):
                return _ge_const(b, labels[u], k - lo[u])
        else:
            ge = {}

            def at_least(u, k):
                if parent[u] < 0:
                    return b.const(int(t >= k))
                if u not in ge:
                    ge[u] = _thermometer(b, labels[u])
                return ge[u][k - lo[u] - 1]
        outputs = patched_outputs(
            b, plan, lambda u: one if cons[u] is None else cons[u], word, at_least)
    b.set_outputs(outputs)
    return b.build(), layout
