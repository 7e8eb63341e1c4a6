"""Regular-language and structured-branching-program proof systems.

An automaton on length-n words unrolls into a layered branching program with
n+2 layers of widths (1, w, ..., w, 1): layer g holds the states after
reading g bits, gap g reads one input variable, and the last gap joins the
accepting states to a single sink.  On the interval tree over (0, n+1] (see
:mod:`rangesynth.intervals`) a label is a pair of claimed states (p, q) at
the interval's boundary layers.  A node is consistent when its label chains
with its children's and all three are feasible; a leaf checks its gap's edge
on the word bit.  A label's patch is its lexicographically smallest witness.

A node's label tables (feasibility and patch words) are products of its
gaps' either-bit relations, and products compose: ``_Engine`` builds each
node's tables from its two children's, bottom-up over the tree
(:func:`_compose`, the parallel-prefix evaluation of an automaton; Ladner
and Fischer, JACM 1980).  Feasibility is a boolean product.  The patch
follows the smallest path, which splits at the middle layer into the left
child's smallest path to the first-ranked state that can still reach the
target, then the right child's smallest path on; so each table also ranks
every start's ends by their smallest paths.  Nodes of one length share
tables when gaps 2..n share relations, so an unrolling composes O(log n)
entries, one stacked numpy step per tree height.

A witness walks the word's own relations gap by gap over Python-int tables
(:class:`_Gaps`).  In a deterministic BP (every row of every relation has
one successor, as in every DFA unrolling) the word's only path is its run,
and membership is the last state's accept bit.  Otherwise :func:`_reach`
makes one backward pass of masks, the states of each layer that still reach
the sink, and :func:`_lowest_path` walks forward to the lowest successor in
the next layer's mask: the lexicographically smallest accepting path.

Synthesis is a handful of block emissions over all nodes.  Every label
predicate (feasibility, the leaf's edge check, the three label equalities
of an internal node, each patch bit) is a truth table over a node's label
bits, and the distinct tables are few: one per ``_Engine`` entry and kind.
Each is lowered once (``circuit._template``) and one
:func:`~rangesynth.circuit.stamp_tables` call emits every node's rows; one
:meth:`~rangesynth.circuit.CircuitBuilder.trees` call ANDs each internal
node's checks, and :func:`~rangesynth.intervals.patched_outputs` the rest.
``tests/regular_reference.py`` keeps the gate-by-gate construction over
tables walked gap by gap, and the two give the same circuit up to gate
numbering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_
from typing import NamedTuple

import numpy as np

from .circuit import (AND, NOT, CircuitBuilder, _as_bits, _field_values, bits_for,
                      stamp_tables)
from .intervals import PLAN_CACHE, Plan, patched_outputs
from .languages import Dfa, LanguageError, Nfa, _records

__all__ = [
    "LayeredBp",
    "ProofLayout",
    "StructureError",
    "SynthesisError",
    "WitnessError",
    "synth_regular",
    "synth_structured",
    "unroll",
    "witness_regular",
]


class StructureError(ValueError):
    """Branching program violates the structured-BP conditions."""


class SynthesisError(ValueError):
    """No proof system exists for the requested slice."""


class WitnessError(ValueError):
    """Word is not in the language, so no proof can be generated."""


# ---------------------------------------------------------------------------
# layered branching programs


@dataclass
class LayeredBp:
    """Layered BP with widths (1, w, ..., w, 1) over n input gaps.

    ``rel0[g-1]`` / ``rel1[g-1]`` are boolean matrices for gap g in 1..n
    (edges read as negative / positive literals of variable ``gap_var[g-1]``);
    ``accept`` marks the layer-n states wired to the sink by always-true
    edges.  Synthesis shares label tables between equal-length nodes when
    gaps 2..n have equal relations, as in every automaton unrolling.
    """

    n: int
    width: int
    gap_var: tuple          # 1-indexed variable read at each input gap
    rel0: list              # np.bool_ matrices, shapes follow layer widths
    rel1: list
    accept: np.ndarray      # shape (width,)

    @property
    def widths(self) -> list:
        return [1] + [self.width] * self.n + [1]

    def check_structured(self):
        """Refuse a BP that breaks the conditions above, naming the field:
        gap variables not a permutation of 1..n, relations of the wrong
        shape or not boolean, or ``accept`` not a bool array of shape
        (width,)."""
        if self.n < 1:
            raise StructureError(f"a structured BP needs n >= 1 gaps, got {self.n}")
        if sorted(self.gap_var) != list(range(1, self.n + 1)):
            raise StructureError(
                f"gap variables {self.gap_var} are not a permutation of 1..{self.n}"
            )
        w, boolean = self.width, np.dtype(bool)
        want = [((1, w), boolean)] + [((w, w), boolean)] * (self.n - 1)
        for name in ("rel0", "rel1"):
            rels = getattr(self, name)[: self.n]
            if [(getattr(r, "shape", None), getattr(r, "dtype", None)) for r in rels] == want:
                continue
            if len(rels) < self.n:
                raise StructureError(f"{name} has {len(rels)} relations for {self.n} gaps")
            for g, (rel, (shape, _)) in enumerate(zip(rels, want), 1):  # name the first
                if not isinstance(rel, np.ndarray) or rel.dtype != boolean:
                    got = (f"dtype {rel.dtype}" if isinstance(rel, np.ndarray)
                           else type(rel).__name__)
                    raise StructureError(f"{name} gap {g} relation must be a bool array, "
                                         f"got {got}")
                if rel.shape != shape:
                    raise StructureError(f"{name} gap {g} relation has shape {rel.shape}")
        accept = self.accept
        if not isinstance(accept, np.ndarray) or (accept.shape, accept.dtype) != ((w,), boolean):
            got = (f"shape {accept.shape} and dtype {accept.dtype}"
                   if isinstance(accept, np.ndarray) else type(accept).__name__)
            raise StructureError(f"accept must be a bool array of shape ({w},), got {got}")

    def accepts(self, word) -> bool:
        """Run the BP on a word given in variable order; a word of any
        length but n is not accepted."""
        word = _as_bits(word, (None,), "word")
        if len(word) != self.n:
            return False
        cur = np.ones(1, dtype=bool)
        for g in range(self.n):
            rel = self.rel1[g] if word[self.gap_var[g] - 1] else self.rel0[g]
            cur = cur @ rel
        return bool((cur & self.accept).any())


def unroll(automaton, n: int) -> LayeredBp:
    """Unroll a DFA/NFA into the layered BP it computes on length-n words."""
    if n < 1:
        raise LanguageError("unroll needs n >= 1")
    w = automaton.num_states
    base0 = np.zeros((w, w), dtype=bool)
    base1 = np.zeros((w, w), dtype=bool)
    if isinstance(automaton, Dfa):
        for p, (q0, q1) in enumerate(automaton.delta):
            base0[p, q0] = True
            base1[p, q1] = True
    elif isinstance(automaton, Nfa):
        for p, (s0, s1) in enumerate(automaton.delta):
            for q in s0:
                base0[p, q] = True
            for q in s1:
                base1[p, q] = True
    else:
        raise LanguageError(f"not an automaton: {automaton!r}")
    rel0 = [base0[automaton.start : automaton.start + 1]] + [base0] * (n - 1)
    rel1 = [base1[automaton.start : automaton.start + 1]] + [base1] * (n - 1)
    accept = np.zeros(w, dtype=bool)
    for f in automaton.finals:
        accept[f] = True
    return LayeredBp(n=n, width=w, gap_var=tuple(range(1, n + 1)),
                     rel0=rel0, rel1=rel1, accept=accept)


def parse_bp(text: str) -> LayeredBp:
    """Parse the structured-BP text format.

    Lines: ``gaps <n>``, ``states <w>``, ``start <q>``, ``final <q...>``,
    ``var <gap> <variable>`` (one per gap; defaults to the identity), and
    ``edge <gap> <p> <bit> <q>``.  Layer 0 is the start state alone; gap-1
    edges must leave the start state.  ``#`` starts a comment.
    """
    header: dict[str, tuple[int, int]] = {}  # gaps/states/start -> (value, line)
    finals: dict[int, int] = {}  # state -> line
    var_lines: dict[int, tuple[int, int]] = {}  # gap -> (variable, line)
    edges: list[tuple[int, ...]] = []  # (line, gap, p, bit, q)
    arity = {"gaps": 1, "states": 1, "start": 1, "final": None, "var": 2, "edge": 4}
    for lineno, key, vals in _records(text, arity, StructureError):
        if key == "final":
            finals.update(dict.fromkeys(vals, lineno))
        elif key == "edge":
            edges.append((lineno, *vals))
        elif key == "var":
            g, v = vals
            if var_lines.get(g, (v,))[0] != v:
                raise StructureError(f"line {lineno}: gap {g} assigned two variables")
            var_lines[g] = (v, lineno)
        else:
            header[key] = (vals[0], lineno)
    if len(header) < 3:
        raise StructureError("missing 'gaps', 'states' or 'start' line")
    (n, n_line), (w, w_line), (start, s_line) = (
        header[k] for k in ("gaps", "states", "start"))
    if n < 1:
        raise StructureError(f"line {n_line}: gaps must be at least 1")
    if w < 1:
        raise StructureError(f"line {w_line}: states must be at least 1")
    if not 0 <= start < w:
        raise StructureError(f"line {s_line}: start state {start} out of range")
    for g, (v, line) in var_lines.items():
        if not 1 <= g <= n:
            raise StructureError(f"line {line}: var gap {g} is not in 1..{n}")
    gap_var = tuple(var_lines.get(g, (g,))[0] for g in range(1, n + 1))
    rel0 = [np.zeros((1 if g == 0 else w, w), dtype=bool) for g in range(n)]
    rel1 = [np.zeros((1 if g == 0 else w, w), dtype=bool) for g in range(n)]
    for line, g, p, b, q in edges:
        if not (1 <= g <= n) or not (0 <= p < w) or not (0 <= q < w) or b not in (0, 1):
            raise StructureError(f"line {line}: bad edge ({g},{p},{b},{q})")
        if g == 1:
            if p != start:
                raise StructureError(
                    f"line {line}: gap-1 edges must leave the start state")
            p = 0
        (rel1 if b else rel0)[g - 1][p, q] = True
    accept = np.zeros(w, dtype=bool)
    for f, line in finals.items():
        if not (0 <= f < w):
            raise StructureError(f"line {line}: final state {f} out of range")
        accept[f] = True
    bp = LayeredBp(n=n, width=w, gap_var=gap_var, rel0=rel0, rel1=rel1,
                   accept=accept)
    bp.check_structured()
    return bp


# ---------------------------------------------------------------------------
# proof layout


@dataclass
class ProofLayout:
    """Where each proof bit lives: word bits first, then pre-order labels.

    ``labels`` holds one ``(lo, hi, offset, p_bits, q_bits)`` tuple per tree
    node in pre-order; each label encodes the pair of claimed states at the
    interval's boundary layers, p before q, most significant bit first.
    """

    n: int
    m: int
    labels: list

    def to_text(self) -> str:
        lines = [f"word 0 {self.n}"]
        for lo, hi, off, pb, qb in self.labels:
            lines.append(f"label {lo} {hi} {off} {pb} {qb}")
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=PLAN_CACHE)
def _plan(n: int, width: int):
    """The label plan of every n-gap BP of this width, its q widths, and per
    label bit the layer whose state it encodes and the bit of twice that
    state it is (a witness walk keeps its states doubled)."""
    bits = np.array([0] + [bits_for(width)] * n + [0])
    plan = Plan(n + 1, lambda lo, hi, parent: bits[lo] + bits[hi], n)
    q_bits = bits[plan.hi]
    own = plan.owner
    in_q = plan.shift < q_bits[own]  # a label is p above q
    layer = np.where(in_q, plan.hi[own], plan.lo[own])
    shift = np.where(in_q, plan.shift, plan.shift - q_bits[own]) + 1
    for a in (q_bits, layer, shift):
        a.flags.writeable = False
    return plan, q_bits, layer, shift


def _layout(bp: LayeredBp):
    """The plan of the tree over (0, n+1] and its label blocks."""
    plan, q_bits = _plan(bp.n, bp.width)[:2]
    labels = list(zip(*(a.tolist() for a in (
        plan.lo, plan.hi, plan.offset, plan.bits - q_bits, q_bits))))
    return plan, ProofLayout(n=bp.n, m=plan.m, labels=labels)


# ---------------------------------------------------------------------------
# label tables


def _compose(feas_l, rank_l, feas_r, rank_r):
    """A batch of parents' label tables from their children's, as stacked
    (entries, w, w) arrays over padded layers.

    ``rank[p, s]`` orders the ends s of a node's smallest p -> s paths.  The
    smallest p -> q path of a parent ends its left half at ``mid[p, q]``, the
    s with the first-ranked left path among those that chain (p -> s on the
    left, s -> q on the right), and goes on along the right child's smallest
    s -> q path; so the parent ranks q by (rank_l[p, mid], rank_r[mid, q]).
    Returns (feas, rank, mid); mid is meaningless where feas is False.
    """
    w = feas_l.shape[-1]
    valid = feas_l[:, :, :, None] & feas_r[:, None, :, :]  # (entry, p, s, q)
    mid = np.where(valid, rank_l[:, :, :, None], w).argmin(axis=2)
    feas = valid.any(axis=2)
    e, ends = np.arange(len(mid))[:, None, None], np.arange(w)
    key = rank_l[e, ends[:, None], mid] * w + rank_r[e, mid, ends]
    rank = np.where(feas, key, w * w).argsort(axis=2).argsort(axis=2)
    return feas, rank, mid


class _Engine:
    """Every node's label tables, composed bottom-up over the interval tree.

    The tables are kept per entry.  When gaps 2..n share their relations
    (every automaton unrolling does), a node's tables depend only on its
    length and on whether it touches the first or the last layer, so nodes
    with equal keys share an entry and a BP builds O(log n) of them; the
    keys are closed under the midpoint split.  Otherwise each node is its
    own entry.  ``key[u]`` is node u's entry and ``first[j]`` the first node
    of entry j, in pre-order.

    ``entries[j]`` is (feas, words, nontrivial) for the labels (p, q) of
    entry j's nodes (lo, hi].  ``feas[p, q]`` says q at the right boundary
    is reachable from p at the left one.  ``words[p, q]`` is the word
    patched in for a feasible label (zero elsewhere): the bits read along
    the lexicographically smallest state sequence from p to q (bit 0
    preferred on parallel edges); the acceptance gap contributes no bit.
    ``nontrivial`` is the set of relative word positions where some
    feasible pair has a 1.

    Leaves come from their gap's relations; a parent composes its two
    children (:func:`_compose`), one stacked step per tree height, so a BP
    takes O(log n) numpy steps.  Every layer is padded to w states: layer 0's
    single state and the sink are state 0, and the other states there are
    infeasible rows and columns.
    """

    def __init__(self, bp: LayeredBp):
        n, w = bp.n, bp.width
        uniform = all(  # an unrolling repeats one array: skip the compare
            (r0 is bp.rel0[1] or np.array_equal(r0, bp.rel0[1]))
            and (r1 is bp.rel1[1] or np.array_equal(r1, bp.rel1[1]))
            for r0, r1 in zip(bp.rel0[1:], bp.rel1[1:]))
        plan = self.plan = _plan(n, w)[0]
        lo, hi = plan.lo, plan.hi
        code = ((hi - lo) * 4 + (lo == 0) * 2 + (hi == n + 1) if uniform
                else np.arange(len(lo)))
        _, self.first, self.key = np.unique(code, return_index=True, return_inverse=True)
        u = self.first
        elo, ehi = lo[u], hi[u]
        size = np.minimum(ehi, n) - elo  # word bits: the acceptance gap reads none
        height = np.frexp((ehi - elo - 1).astype(float))[1]  # ceil(log2(length))
        order = np.argsort(height, kind="stable")
        bounds = np.cumsum(np.bincount(height)).tolist()  # of each height's entries
        left = self.key[np.minimum(u + 1, len(lo) - 1)]  # read at inner entries only
        right = self.key[plan.right[u]]

        # per entry and label (p, q): feasibility, the rank of q among p's
        # ends, and the patch word as an int whose bit t is the word's bit t
        feas = np.zeros((len(u), w, w), dtype=bool)
        rank = np.empty((len(u), w, w), dtype=np.intp)
        words = np.zeros((len(u), w, w), dtype=object)
        leaves = order[:bounds[0]]
        rel0, rel1 = np.zeros((2, len(leaves), w, w), dtype=bool)
        for i, g in enumerate(ehi[leaves].tolist()):  # a gap, or the acceptance edge
            if g > n:  # taken on either bit, so it patches in no bit
                rel0[i, :, 0] = rel1[i, :, 0] = bp.accept
            else:
                r0, r1 = bp.rel0[g - 1], bp.rel1[g - 1]
                rel0[i, :len(r0)], rel1[i, :len(r1)] = r0, r1
        feas[leaves] = rel0 | rel1
        rank[leaves] = np.arange(w)
        words[leaves] = (rel1 & ~rel0).astype(int).tolist()  # bit 0 preferred on parallel edges
        state = np.arange(w)
        for a, c in zip(bounds, bounds[1:]):  # one height at a time, upwards
            batch = order[a:c]
            kl, kr = left[batch], right[batch]
            f, rank[batch], mid = _compose(feas[kl], rank[kl], feas[kr], rank[kr])
            feas[batch] = f
            pair = words[kl[:, None, None], state[:, None], mid] | (
                words[kr[:, None, None], mid, state] << size[kl].astype(object)[:, None, None])
            words[batch] = np.where(f, pair, 0)

        # each entry's tables at its nodes' layer widths
        rows = np.where(elo == 0, 1, w).tolist()
        cols = np.where(ehi == n + 1, 1, w).tolist()
        self.entries = []
        for j, (r, c, k) in enumerate(zip(rows, cols, size.tolist())):
            ints = words[j, :r, :c].ravel().tolist()
            ints.append(reduce(or_, ints))  # any label's 1s: the nontrivial positions
            raw = b"".join(x.to_bytes((k + 7) // 8, "little") for x in ints)
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
            bits = bits.reshape(r * c + 1, 8 * ((k + 7) // 8))[:, :k]
            self.entries.append((feas[j, :r, :c], bits[:-1].reshape(r, c, k),
                                 set(np.flatnonzero(bits[-1]).tolist())))


# ---------------------------------------------------------------------------
# synthesis


_NOT = (((NOT, -1, 0),), 0)


def _synth(bp: LayeredBp):
    """The circuit and its layout, stamped over all nodes at once (see the
    module docstring)."""
    n, w = bp.n, bp.width
    eng = _Engine(bp)
    plan, layout = _layout(bp)
    if not eng.entries[eng.key[0]][0].any():  # the root's one label
        raise SynthesisError(f"language slice at length {n} is empty")
    lo, hi, right = plan.lo, plan.hi, plan.right
    b = CircuitBuilder(layout.m)
    b.inputs(0, layout.m)  # proof bit i is wire i: a_1..a_n, then the labels
    nots = b.stamp(_NOT, np.arange(layout.m)[:, None])
    # each node's p and q wires, least significant first, -1 past its bits
    q_bits = _plan(n, w)[1]
    p_bits = plan.bits - q_bits
    bit = np.arange(bits_for(w))
    p = np.where(bit < p_bits[:, None], (plan.offset + p_bits - 1)[:, None] - bit, -1)
    q = np.where(bit < q_bits[:, None], (plan.offset + plan.bits - 1)[:, None] - bit, -1)
    label = np.where(p_bits[:, None] > 0, np.concatenate([p, q], axis=1),
                     np.concatenate([q, p], axis=1))  # no p at layer 0

    catalog: dict = {}  # table bytes -> table index

    def table_id(table) -> int:
        return catalog.setdefault(np.asarray(table, dtype=bool).tobytes(), len(catalog))

    def eq_id(nv: int) -> int:
        """x == y over two boundary states of a layer of nv states."""
        x, y = _field_values(((bits_for(nv), nv),) * 2)
        return table_id(x == y)

    first, key = eng.first, eng.key  # nodes with equal tables share a key
    feas_id, leaf_id = np.zeros((2, len(first)), dtype=np.int64)
    rels, patch_ids = [], []  # per key: nontrivial positions and their tables
    for j, u in enumerate(first.tolist()):
        a, c = int(lo[u]), int(hi[u])
        feas, words, nontrivial = eng.entries[j]
        fields = ((int(p_bits[u]), 1 if a == 0 else w), (int(q_bits[u]), 1 if c == n + 1 else w))
        pv, qv = _field_values(fields)
        feas_id[j] = table_id(feas[pv, qv])
        if c - a == 1 and c <= n:  # gap c reads its word bit
            av, pv2, qv2 = _field_values(((1, None),) + fields)
            leaf_id[j] = table_id(np.where(av, bp.rel1[c - 1][pv2, qv2], bp.rel0[c - 1][pv2, qv2]))
        rels.append(sorted(nontrivial))
        patch_ids.append([table_id(words[pv, qv, t]) for t in rels[-1]])
    # patch rows: one per node and nontrivial position of its key, read
    # from the keys' lists laid end to end
    size = np.array([len(r) for r in rels], dtype=np.int64)
    count = size[key]
    pnode = np.repeat(np.arange(len(lo)), count)
    flat = np.arange(len(pnode)) + np.repeat(
        (np.cumsum(size) - size)[key] - (np.cumsum(count) - count), count)
    prel = np.array([t for r in rels for t in r], dtype=np.int64)[flat]
    ptable = np.array([t for r in patch_ids for t in r], dtype=np.int64)[flat]

    leaves = np.flatnonzero((right < 0) & (hi <= n))
    word = np.asarray(bp.gap_var, dtype=np.int64) - 1  # a_{gap_var[k-1]} at gap k
    kids = np.flatnonzero(right >= 0)
    edge, inner = eq_id(1), eq_id(w)
    groups = [  # (wires, table index) per row
        (label, feas_id[key]),
        (np.column_stack([word[hi[leaves] - 1], label[leaves]]), leaf_id[key[leaves]]),
        # the label pairs that must agree: both on a boundary layer or neither
        (np.column_stack([p[kids], p[kids + 1]]), np.where(lo[kids] == 0, edge, inner)),
        (np.column_stack([q[kids + 1], p[right[kids]]]), np.full(len(kids), inner)),
        (np.column_stack([q[kids], q[right[kids]]]), np.where(hi[kids] == n + 1, edge, inner)),
        (label[pnode], ptable),
    ]
    width = max(g[0].shape[1] for g in groups)
    wires = np.full((sum(len(g) for g, _ in groups), width), -1, dtype=np.int64)
    at = 0
    for g, _ in groups:
        wires[at:at + len(g), :g.shape[1]] = g
        at += len(g)
    tables = [np.frombuffer(t, dtype=bool) for t in catalog]
    roots = stamp_tables(b, tables, wires, np.concatenate([i for _, i in groups]), nots)
    feas, checks, eqs, patches = np.split(roots, np.cumsum(
        [len(lo), len(leaves), 3 * len(kids)]))
    cons = feas.copy()  # the acceptance gap checks feasibility alone
    cons[leaves] = checks
    # children labels chain and everyone is feasible
    cons[kids] = b.trees(AND, np.column_stack(
        [eqs.reshape(3, -1).T, feas[kids], feas[kids + 1], feas[right[kids]]]))
    outs = patched_outputs(b, plan, cons, word, pnode, lo[pnode] + prel + 1, patches)
    b.set_outputs(outs[np.argsort(bp.gap_var)].tolist())
    return b.build(), layout


def synth_regular(automaton, n: int):
    """Proof-system circuit for the automaton's length-n slice."""
    return _synth(unroll(automaton, n))


def synth_structured(bp: LayeredBp):
    """Proof-system circuit for a structured branching program."""
    bp.check_structured()
    return _synth(bp)


# ---------------------------------------------------------------------------
# witness generation


class _Gaps(NamedTuple):
    """A BP's gap relations as Python tables.  ``steps[g][2p + b]`` is state
    p's entry in gap g+1's relation on bit b: twice its successor when the
    BP is deterministic, else the mask of its successors (bit q for state
    q); gap 1 pads layer 0's one state with zeros.  A walk keeps its states
    doubled, so state 2p on bit b reads entry 2p + b with one addition.
    ``accept`` masks the accepting layer-n states, and ``order`` is the word
    position each gap reads (None: gap g reads bit g)."""

    width: int
    order: np.ndarray | None
    steps: tuple | list  # tuples when cached
    accept: int
    deterministic: bool


def _masks(rows: np.ndarray) -> np.ndarray:
    """Each row of a bool matrix as an int with bit q set where column q is."""
    w = rows.shape[1]
    if w <= 64:
        return rows @ (np.uint64(1) << np.arange(w, dtype=np.uint64))
    packed = np.packbits(rows, axis=1, bitorder="little")
    return np.array([int.from_bytes(row.tobytes(), "little") for row in packed], dtype=object)


def _gaps(bp: LayeredBp) -> _Gaps:
    """The tables of :class:`_Gaps`, one pass over all the relations' rows.  A
    BP is deterministic when every row of every relation has exactly one
    successor, as in every DFA unrolling."""
    n, w = bp.n, bp.width
    rows = np.concatenate(bp.rel0 + bp.rel1)
    row, succ = np.divmod(np.flatnonzero(rows), w)  # a run hits each row once
    deterministic = len(row) == len(rows) and bool((row == np.arange(len(rows))).all())
    vals = (2 * succ if deterministic else _masks(rows)).reshape(2, -1)  # by bit
    pad = np.zeros((2, w - 1), dtype=vals.dtype)
    steps = np.concatenate([vals[:, :1], pad, vals[:, 1:]], axis=1).reshape(2, n, w)
    order = (None if bp.gap_var == tuple(range(1, n + 1))
             else np.array(bp.gap_var, dtype=np.intp) - 1)
    accept = sum(1 << q for q in np.flatnonzero(bp.accept).tolist())
    return _Gaps(w, order, steps.transpose(1, 2, 0).reshape(n, 2 * w).tolist(), accept,
                 deterministic)


def _reach(steps, bits, accept) -> list:
    """Per layer 0..n, the mask of its states from which the rest of the word
    (``bits``, in gap order) reaches an accepting state."""
    back = [accept]
    for step, b in zip(reversed(steps), reversed(bits)):
        after, mask = back[-1], 0
        for p, succ in enumerate(step[b::2]):
            if succ & after:
                mask |= 1 << p
        back.append(mask)
    back.reverse()
    return back


def _lowest_path(steps, bits, back) -> list:
    """The lexicographically smallest accepting state sequence at layers
    0..n, doubled: each step takes the lowest successor that still reaches
    ``back``."""
    state, states = 0, [0]
    for step, b, alive in zip(steps, bits, back[1:]):
        nxt = step[state + b] & alive
        state = 2 * (nxt & -nxt).bit_length() - 2
        states.append(state)
    return states


def _witness(gaps: _Gaps, word: np.ndarray) -> np.ndarray:
    """The proof for a coerced word of length n."""
    bits = (word if gaps.order is None else word[gaps.order]).tolist()
    if gaps.deterministic:  # the run is the only path, and no reach is needed
        state, states = 0, [0]
        for step, b in zip(gaps.steps, bits):
            state = step[state + b]
            states.append(state)
        member = gaps.accept >> (state >> 1) & 1
    else:
        back = _reach(gaps.steps, bits, gaps.accept)
        member = back[0] & 1
        if member:
            states = _lowest_path(gaps.steps, bits, back)
    if not member:
        raise WitnessError("word is not in the language")
    states.append(0)  # the sink
    n = len(bits)
    plan, _, layer, shift = _plan(n, gaps.width)
    proof = np.empty(plan.m, dtype=np.uint8)
    proof[:n] = word
    proof[n:] = (np.fromiter(states, np.intp, n + 2)[layer] >> shift) & 1
    return proof


def witness_bp(bp: LayeredBp, word) -> np.ndarray:
    """Proof vector whose evaluation reproduces the given member word."""
    bp.check_structured()
    word = _as_bits(word, (bp.n,), "word", WitnessError)
    return _witness(_gaps(bp), word)


UNROLL_CACHE = 64


@lru_cache(maxsize=UNROLL_CACHE)
def _unrolled(automaton, n: int) -> _Gaps:
    """The tables of the automaton's n-gap BP as tuples, shared by every equal
    automaton.  Gaps 2..n repeat one relation pair: it is tabulated once."""
    gaps = _gaps(unroll(automaton, min(n, 2)))
    first, *rest = map(tuple, gaps.steps)
    return gaps._replace(steps=(first,) + tuple(rest) * (n - 1))


def witness_regular(automaton, word) -> np.ndarray:
    """Proof vector for synth_regular(automaton, len(word))."""
    word = _as_bits(word, (None,), "word", WitnessError)
    try:
        gaps = _unrolled(automaton, len(word))
    except TypeError:  # unhashable, e.g. an automaton built with list fields
        gaps = _unrolled.__wrapped__(automaton, len(word))
    return _witness(gaps, word)
