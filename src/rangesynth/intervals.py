"""The interval-tree skeleton shared by the regular, structured and counting
proof systems.

A word's position range is carved into a binary tree by midpoint splits:
node (i, j] with i + 1 < j splits at m = floor((i + j) / 2) into children
(i, m] and (m, j].  Leaves are the unit ranges (k-1, k].  Every node carries
a claimed label for its interval; the systems differ only in what a label is
(a pair of boundary states, or a count of ones) and build the rest from three
pieces here:

* **Blocks.**  A :class:`Plan` gives each node, in pre-order, a contiguous
  block of proof bits after the word bits.  Hardwired labels (the root,
  width-1 boundaries, counting leaves) get zero bits.  Each scheme memoizes
  one plan per shape (n and the BP width, or n) for synthesis and witnesses.
* **Encoding.**  :meth:`Plan.write` encodes every node's label value in one
  array operation, most significant bit first; an honest proof encodes
  every node's true label.
* **Patched outputs.**  :func:`patched_outputs` turns per-node consistency
  bits into the output word.  A position whose root-to-leaf path is fully
  consistent passes its word bit through; otherwise the topmost inconsistent
  node u on the path selects ``patch(u, k)``, a bit computed from u's own
  label.  Since u's parent is consistent, u's label is one an honest proof
  could carry, and the patches tile an accepted word.

The callers' contracts: ``cons(u)`` is the wire saying u's label agrees with
its children's (for a leaf, with its word bit); the constant 1 marks a node
that cannot be inconsistent.  ``patch(u, k)`` is the wire for position k
when u is the topmost inconsistent node, or None when that bit is always 0.
Regular passes its state-pair chaining and feasibility checks and its
witness-word tables; exact count passes ``label(u) >= k - u.lo``.
Threshold's all-ones patch needs no selection: it ORs each word bit with
NOT :func:`chain_ands` of its path, which is shallower than per-node ``sel``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PLAN_CACHE = 64  # plans each label scheme keeps, least recently used first out


@dataclass
class Node:
    lo: int            # exclusive left endpoint
    hi: int            # inclusive right endpoint
    left: "Node | None" = None
    right: "Node | None" = None
    parent: "Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def build_tree(lo: int, hi: int) -> Node:
    """Midpoint-split tree over (lo, hi]."""
    root = Node(lo, hi)
    stack = [root]
    while stack:
        node = stack.pop()
        if node.hi - node.lo <= 1:
            continue
        mid = (node.lo + node.hi) // 2
        node.left = Node(node.lo, mid, parent=node)
        node.right = Node(mid, node.hi, parent=node)
        stack.append(node.right)
        stack.append(node.left)
    return root


def path_to_leaf(root: Node, k: int) -> list:
    """Nodes from root down to the leaf covering position k."""
    node = root
    out = [node]
    while not node.is_leaf:
        node = node.left if k <= node.left.hi else node.right
        out.append(node)
    return out


def preorder(root: Node) -> list:
    """The tree's nodes, each before its left and then its right subtree."""
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not node.is_leaf:
            stack += [node.right, node.left]
    return nodes


class Plan:
    """Read-only int arrays over the pre-order ``nodes`` (their ``lo``, ``hi``):
    node i's label takes ``bits[i] = bits_of(node)`` proof bits from
    ``offset[i]``, packed from ``start`` to ``m``.  Proof bit ``start + j``
    is bit ``shift[j]`` of node ``owner[j]``'s label."""

    def __init__(self, nodes, bits_of, start: int):
        self.lo, self.hi, self.bits = (np.array(col, dtype=np.int64) for col in
                                       zip(*[(u.lo, u.hi, bits_of(u)) for u in nodes]))
        self.offset = start + np.cumsum(self.bits) - self.bits
        self.owner = np.repeat(np.arange(len(nodes)), self.bits)
        self.start, self.m = start, start + len(self.owner)
        self.shift = (self.offset + self.bits - 1)[self.owner] - np.arange(start, self.m)
        for a in (self.lo, self.hi, self.bits, self.offset, self.owner, self.shift):
            a.flags.writeable = False

    def write(self, proof, values):
        """Encode node i's label ``values[i]`` for every node at once."""
        proof[self.start:] = (values[self.owner] >> self.shift) & 1


def chain_ands(builder, nodes_root_first, value_of) -> dict:
    """AND-accumulate per-node bits up each ancestor chain, shallowly.

    For every node in ``nodes_root_first`` (each node's parent is None or
    appears earlier) returns a wire computing the AND of ``value_of[id]``
    over the node and all its ancestors.  Uses binary lifting so the added
    circuit depth is O(log chain length) rather than the chain length itself.
    """
    # lift[id(n)][k] = (wire = AND of values over the 2^k chain nodes starting
    # at n and going up, ancestor node just above that block or None)
    lift: dict[int, list] = {}
    for n in nodes_root_first:
        levels = [(value_of[id(n)], n.parent)]
        while True:
            w, anc = levels[-1]
            if anc is None or len(lift[id(anc)]) < len(levels):
                break
            w2, anc2 = lift[id(anc)][len(levels) - 1]
            levels.append((builder.and_f(w, w2), anc2))
        lift[id(n)] = levels
    out: dict[int, int] = {}
    for n in nodes_root_first:
        parts = []
        cur = n
        while cur is not None:
            w, cur = lift[id(cur)][-1]
            parts.append(w)
        out[id(n)] = builder.and_tree_f(parts)
    return out


def patched_outputs(b, nodes, cons, word_bits, patch) -> list:
    """One output wire per position k = 1, 2, ... of ``word_bits``.

    Output k is ``word_k AND cons(leaf) AND pathand(leaf.parent)`` ORed
    with ``sel(u) AND patch(u, k)`` for every node u from the leaf up to the
    root, where pathand is the AND of ``cons`` over a node and its
    ancestors and ``sel(u) = NOT cons(u) AND pathand(u.parent)`` marks u as
    the topmost inconsistent node.  ``cons`` and ``sel`` are built at most
    once per node; ``nodes`` are in pre-order.
    """
    ok: dict[int, int] = {}
    sel: dict[int, int] = {}

    def cons_of(u):
        if id(u) not in ok:
            ok[id(u)] = cons(u)
        return ok[id(u)]

    internal = [u for u in nodes if not u.is_leaf]
    pathand = chain_ands(b, internal, {id(u): cons_of(u) for u in internal})

    def above(u):
        return b.const(1) if u.parent is None else pathand[id(u.parent)]

    def sel_of(u):
        if id(u) not in sel:
            sel[id(u)] = b.and_f(b.not_f(cons_of(u)), above(u))
        return sel[id(u)]

    outputs = []
    leaves = [u for u in nodes if u.is_leaf]
    for k, (leaf, word) in enumerate(zip(leaves, word_bits), 1):
        terms = [b.and_tree_f([word, cons_of(leaf), above(leaf)])]
        u = leaf
        while u is not None:
            if b.const_value(cons_of(u)) != 1:
                bit = patch(u, k)
                if bit is not None:
                    terms.append(b.and_f(sel_of(u), bit))
            u = u.parent
        outputs.append(b.or_tree_f(terms))
    return outputs
