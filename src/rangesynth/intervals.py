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

Both circuit pieces work on arrays over all nodes at once: each step is one
:meth:`CircuitBuilder.stamp` (or :meth:`CircuitBuilder.trees`) over every
node or row, so a synthesis makes a fixed number of stamp calls plus one per
binary-lifting round of :func:`chain_ands`, whatever n.

The callers' contracts: ``cons[u]`` is the wire saying node u's label agrees
with its children's (for a leaf, with its word bit); CONST 1 marks a node
that cannot be inconsistent.  The patch rows ``(node, pos, bit)`` list
``patch(u, k)`` for every pair whose bit can be 1.  Regular passes its
state-pair chaining and feasibility checks and its witness-word tables;
exact count passes ``label(u) >= k - lo[u]``, one wire of node u's
thermometer.  Threshold's all-ones patch needs no selection: it ORs each
word bit with NOT :func:`chain_ands` of its path, which is shallower than
per-node ``sel``.
"""

from __future__ import annotations

import numpy as np

from .circuit import AND, NOT, OR

PLAN_CACHE = 64  # plans each label scheme keeps, least recently used first out


def _tree(span: int):
    """(lo, hi, parent, right, depth) of the midpoint-split tree over
    (0, span] in pre-order.  Internal node i's left subtree over (lo, m] has
    2(m - lo) - 1 nodes, so its children are i + 1 and i + 2(m - lo)."""
    lo, hi, parent, right, depth = np.full((5, 2 * span - 1), -1, dtype=np.int64)
    i, a, b = np.array([[0], [0], [span]], dtype=np.int64)  # the root level
    level = 0
    while len(i):  # one tree level per pass
        lo[i], hi[i], depth[i] = a, b, level
        split = b - a > 1
        i, a, b = i[split], a[split], b[split]
        m = (a + b) // 2
        right[i] = i + 2 * (m - a)
        parent[i + 1] = parent[right[i]] = i
        i, a, b = (np.concatenate(pair) for pair in ((i + 1, right[i]), (a, m), (m, b)))
        level += 1
    return lo, hi, parent, right, depth


class Plan:
    """The tree over (0, span] as read-only int arrays indexed by pre-order
    node number: ``lo``, ``hi``, ``parent`` (-1 at the root), ``right``
    (-1 at a leaf) and ``depth`` (0 at the root); internal node i's left
    child is i + 1, and the leaves come in position order.  Node i's label takes ``bits[i]`` proof bits
    from ``offset[i]``, packed from ``start`` to ``m``; ``bits_of(lo, hi,
    parent)`` gives the whole ``bits`` array.  Proof bit ``start + j`` is
    bit ``shift[j]`` of node ``owner[j]``'s label."""

    def __init__(self, span: int, bits_of, start: int):
        self.lo, self.hi, self.parent, self.right, self.depth = _tree(span)
        self.bits = np.asarray(bits_of(self.lo, self.hi, self.parent), dtype=np.int64)
        self.offset = start + np.cumsum(self.bits) - self.bits
        self.owner = np.repeat(np.arange(len(self.bits)), self.bits)
        self.start, self.m = start, start + len(self.owner)
        self.shift = (self.offset + self.bits - 1)[self.owner] - np.arange(start, self.m)
        for a in (self.lo, self.hi, self.parent, self.right, self.depth, self.bits,
                  self.offset, self.owner, self.shift):
            a.flags.writeable = False

    def write(self, proof, values):
        """Encode node i's label ``values[i]`` for every node at once."""
        proof[self.start:] = (values[self.owner] >> self.shift) & 1


_AND = (((AND, -1, -2),), 0)
# word AND cons(leaf) AND above(leaf), and sel(u) = NOT cons(u) AND above(u)
_FIRST_SELECT = [(((AND, -1, -2), (AND, 0, -3)), 1), (((NOT, -1, 0), (AND, 0, -2)), 1)]


def chain_ands(b, plan: Plan, nodes, values) -> np.ndarray:
    """AND-accumulate per-node bits up each ancestor chain, shallowly.

    For every node index in ``nodes``, whose ancestors must all be listed
    too, sets ``out[i]`` to a wire computing the AND of ``values[j]`` over
    node i and all its ancestors j; ``out`` is -1 at the other nodes.
    Binary lifting keeps the added depth O(log chain length): lift[j][i] is
    the AND over the 2^j chain nodes from i up, one AND of two lift[j - 1]
    wires, made for every node at once in one stamp per j.  Node i's chain
    of d nodes is then the lift blocks of d's binary digits, largest first
    from i up, joined by one :meth:`CircuitBuilder.trees` stamp.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    length = plan.depth + 1  # the chain's node count
    lift, up = [np.asarray(values, dtype=np.int64)], [plan.parent]
    while True:
        j = len(lift) - 1
        rows = nodes[length[nodes] >= 2 << j]
        if not len(rows):
            break
        above = up[j][rows]
        w, a = np.full((2, len(length)), -1, dtype=np.int64)
        w[rows] = b.stamp(_AND, np.column_stack([lift[j][rows], lift[j][above]]))
        a[rows] = up[j][above]
        lift.append(w)
        up.append(a)
    cur, rest = nodes.copy(), length[nodes]
    parts = np.full((len(nodes), len(lift)), -1, dtype=np.int64)
    col = np.zeros(len(nodes), dtype=np.intp)
    for j in reversed(range(len(lift))):
        has = np.flatnonzero(rest >> j & 1)
        parts[has, col[has]] = lift[j][cur[has]]
        col[has] += 1
        cur[has] = up[j][cur[has]]
    out = np.full(len(length), -1, dtype=np.int64)
    out[nodes] = b.trees(AND, parts)
    return out


def patched_outputs(b, plan: Plan, cons, word_bits, node, pos, bit) -> np.ndarray:
    """One output wire per position k = 1, 2, ... of ``word_bits``.

    Output k is ``word_k AND cons(leaf) AND pathand(parent(leaf))`` ORed
    with ``sel(u) AND patch(u, k)`` for every node u from the leaf up to the
    root, where pathand is the AND of ``cons`` over a node and its
    ancestors and ``sel(u) = NOT cons(u) AND pathand(parent(u))`` marks u as
    the topmost inconsistent node.  ``cons`` holds a wire per node of
    ``plan``; ``patch(u, k)`` is ``bit[r]`` for each row r with ``(node[r],
    pos[r]) = (u, k)``, and a pair with no row has no term.  A node whose
    cons is CONST 1 has none either.  Each step is one stamp over all
    nodes or rows: the path ANDs (:func:`chain_ands`), the first terms with
    ``sel``, the patch terms, and each output's OR tree.
    """
    cons = np.asarray(cons, dtype=np.int64)
    node, pos, bit = (np.asarray(a, dtype=np.int64) for a in (node, pos, bit))
    parent = plan.parent
    pathand = chain_ands(b, plan, np.flatnonzero(plan.right >= 0), cons)
    leaves = np.flatnonzero(plan.right < 0)[:len(word_bits)]

    def above(us):
        """pathand(parent(u)), CONST 1 at the root."""
        top = parent[us] < 0
        return np.where(top, b.const(1) if top.any() else -1, pathand[parent[us]])

    live = b.const_values(cons[node]) != 1
    node, pos, bit = node[live], pos[live], bit[live]
    chosen, row = np.unique(node, return_inverse=True)
    # and_tree([word, cons, above]) of three wires is the fixed tree with
    # its constants folded, so one stamp makes it and sel, once per node
    # (sel reads two leaf columns; the third repeats cons)
    both = b.stamp(_FIRST_SELECT, np.concatenate([
        np.column_stack([word_bits, cons[leaves], above(leaves)]),
        np.column_stack([cons[chosen], above(chosen), cons[chosen]])]),
        np.repeat([0, 1], [len(leaves), len(chosen)]))
    first, sel = both[:len(leaves)], both[len(leaves):]
    terms = b.stamp(_AND, np.column_stack([sel[row], bit]))
    # each position's terms from the leaf up: deepest node first
    order = np.lexsort((-plan.depth[node], pos))
    at = pos[order] - 1
    col = 1 + np.arange(len(order)) - np.searchsorted(at, at)
    grid = np.full((len(leaves), 1 + int(col.max(initial=0))), -1, dtype=np.int64)
    grid[:, 0] = first
    grid[at, col] = terms[order]
    return b.trees(OR, grid)
