"""The interval-tree skeleton shared by the regular, structured and counting
proof systems.

A word's position range is carved into a binary tree by midpoint splits:
node (i, j] with i + 1 < j splits at m = floor((i + j) / 2) into children
(i, m] and (m, j].  Leaves are the unit ranges (k-1, k].  Every node carries
a claimed label for its interval; the systems differ only in what a label is
(a pair of boundary states, or a count of ones) and build the rest from three
pieces here:

* **The tree.**  A :class:`Plan` is the tree: read-only int arrays over the
  nodes in pre-order, so a node is its index.  It also gives each node a
  contiguous block of proof bits after the word bits.  Hardwired labels
  (the root, width-1 boundaries, counting leaves) get zero bits.  Each
  scheme memoizes one plan per shape (n and the BP width, or n) for
  synthesis and witnesses.
* **Encoding.**  :meth:`Plan.write` encodes every node's label value in one
  array operation, most significant bit first; an honest proof encodes
  every node's true label.
* **Patched outputs.**  :func:`patched_outputs` turns per-node consistency
  bits into the output word.  A position whose root-to-leaf path is fully
  consistent passes its word bit through; otherwise the topmost inconsistent
  node u on the path selects ``patch(u, k)``, a bit computed from u's own
  label.  Since u's parent is consistent, u's label is one an honest proof
  could carry, and the patches tile an accepted word.

The callers' contracts: ``cons(u)`` is the wire saying node u's label agrees
with its children's (for a leaf, with its word bit); the constant 1 marks a
node that cannot be inconsistent.  ``patch(u, k)`` is the wire for position
k when u is the topmost inconsistent node, or None when that bit is always
0.  Regular passes its state-pair chaining and feasibility checks and its
witness-word tables; exact count passes ``label(u) >= k - lo[u]``, one
wire of node u's thermometer.
Threshold's all-ones patch needs no selection: it ORs each word bit with
NOT :func:`chain_ands` of its path, which is shallower than per-node ``sel``.
"""

from __future__ import annotations

import numpy as np

PLAN_CACHE = 64  # plans each label scheme keeps, least recently used first out


def _tree(span: int):
    """(lo, hi, parent, right) of the midpoint-split tree over (0, span] in
    pre-order.  Internal node i's left subtree over (lo, m] has 2(m - lo) - 1
    nodes, so its children are i + 1 and i + 2(m - lo)."""
    lo, hi, parent, right = np.full((4, 2 * span - 1), -1, dtype=np.int64)
    i, a, b = np.array([[0], [0], [span]], dtype=np.int64)  # the root level
    while len(i):  # one tree level per pass
        lo[i], hi[i] = a, b
        split = b - a > 1
        i, a, b = i[split], a[split], b[split]
        m = (a + b) // 2
        right[i] = i + 2 * (m - a)
        parent[i + 1] = parent[right[i]] = i
        i, a, b = (np.concatenate(pair) for pair in ((i + 1, right[i]), (a, m), (m, b)))
    return lo, hi, parent, right


class Plan:
    """The tree over (0, span] as read-only int arrays indexed by pre-order
    node number: ``lo``, ``hi``, ``parent`` (-1 at the root) and ``right``
    (-1 at a leaf); internal node i's left child is i + 1, and the leaves
    come in position order.  Node i's label takes ``bits[i]`` proof bits
    from ``offset[i]``, packed from ``start`` to ``m``; ``bits_of(lo, hi,
    parent)`` gives the whole ``bits`` array.  Proof bit ``start + j`` is
    bit ``shift[j]`` of node ``owner[j]``'s label."""

    def __init__(self, span: int, bits_of, start: int):
        self.lo, self.hi, self.parent, self.right = _tree(span)
        self.bits = np.asarray(bits_of(self.lo, self.hi, self.parent), dtype=np.int64)
        self.offset = start + np.cumsum(self.bits) - self.bits
        self.owner = np.repeat(np.arange(len(self.bits)), self.bits)
        self.start, self.m = start, start + len(self.owner)
        self.shift = (self.offset + self.bits - 1)[self.owner] - np.arange(start, self.m)
        for a in (self.lo, self.hi, self.parent, self.right, self.bits, self.offset,
                  self.owner, self.shift):
            a.flags.writeable = False

    def write(self, proof, values):
        """Encode node i's label ``values[i]`` for every node at once."""
        proof[self.start:] = (values[self.owner] >> self.shift) & 1


def chain_ands(builder, parent, nodes, value_of) -> list:
    """AND-accumulate per-node bits up each ancestor chain, shallowly.

    For every node index in ``nodes`` (root first: each node's parent is -1
    or listed earlier) sets ``out[i]`` to a wire computing the AND of
    ``value_of[j]`` over node i and all its ancestors j; ``out`` is None at
    the other nodes.  Uses binary lifting so the added circuit depth is
    O(log chain length) rather than the chain length itself.
    """
    # lift[i][k] = (wire = AND of values over the 2^k chain nodes starting
    # at i and going up, ancestor node just above that block or -1)
    lift: list = [None] * len(parent)
    for i in nodes:
        levels = [(value_of[i], parent[i])]
        while True:
            w, anc = levels[-1]
            if anc < 0 or len(lift[anc]) < len(levels):
                break
            w2, anc2 = lift[anc][len(levels) - 1]
            levels.append((builder.and_(w, w2), anc2))
        lift[i] = levels
    out: list = [None] * len(parent)
    for i in nodes:
        parts = []
        cur = i
        while cur >= 0:
            w, cur = lift[cur][-1]
            parts.append(w)
        out[i] = builder.and_tree(parts)
    return out


def patched_outputs(b, plan: Plan, cons, word_bits, patch) -> list:
    """One output wire per position k = 1, 2, ... of ``word_bits``.

    Output k is ``word_k AND cons(leaf) AND pathand(parent(leaf))`` ORed
    with ``sel(u) AND patch(u, k)`` for every node u from the leaf up to the
    root, where pathand is the AND of ``cons`` over a node and its
    ancestors and ``sel(u) = NOT cons(u) AND pathand(parent(u))`` marks u as
    the topmost inconsistent node.  Nodes are ``plan`` indexes; ``cons``
    and ``sel`` are built at most once per node.
    """
    parent = plan.parent.tolist()
    ok: list = [None] * len(parent)
    sel: list = [None] * len(parent)

    def cons_of(u):
        if ok[u] is None:
            ok[u] = cons(u)
        return ok[u]

    internal = np.flatnonzero(plan.right >= 0).tolist()
    for u in internal:
        cons_of(u)
    pathand = chain_ands(b, parent, internal, ok)

    def above(u):
        return b.const(1) if parent[u] < 0 else pathand[parent[u]]

    def sel_of(u):
        if sel[u] is None:
            sel[u] = b.and_(b.not_(cons_of(u)), above(u))
        return sel[u]

    outputs = []
    leaves = np.flatnonzero(plan.right < 0).tolist()
    for k, (leaf, word) in enumerate(zip(leaves, word_bits), 1):
        terms = [b.and_tree([word, cons_of(leaf), above(leaf)])]
        u = leaf
        while u >= 0:
            if b.const_value(cons_of(u)) != 1:
                bit = patch(u, k)
                if bit is not None:
                    terms.append(b.and_(sel_of(u), bit))
            u = parent[u]
        outputs.append(b.or_tree(terms))
    return outputs
