"""Regular-language and structured-branching-program proof-system synthesis.

An automaton on length-n words unrolls into a layered branching program with
n+2 layers of widths (1, w, ..., w, 1): layer g holds the automaton states
after reading g bits, gap g (between layers g-1 and g) reads one input
variable, and the final gap carries always-true edges from accepting states
to the single sink.  The proof system labels a balanced interval tree over
(0, n+1] with state pairs; consistent labelings spell out accepted words
verbatim, and any inconsistency patches the output with a precomputed
feasibility witness for the lowest fully consistent ancestor, so the circuit
range is exactly the length-n slice of the language.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, CircuitBuilder, _as_bits, lower_fields
from .intervals import Node, build_tree, chain_ands, leaf_for_position, preorder
from .languages import Dfa, LanguageError, Nfa

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


def _bits_for(width: int) -> int:
    return 0 if width <= 1 else max(1, math.ceil(math.log2(width)))


# ---------------------------------------------------------------------------
# layered branching programs


@dataclass
class LayeredBp:
    """Layered BP with widths (1, w, ..., w, 1) over n input gaps.

    ``rel0[g-1]`` / ``rel1[g-1]`` are boolean matrices for gap g in 1..n
    (edges read as negative / positive literals of variable ``gap_var[g-1]``);
    ``accept`` marks the layer-n states wired to the sink by always-true
    edges.  ``uniform`` marks automaton unrollings, enabling length-keyed
    caching during synthesis.
    """

    n: int
    width: int
    gap_var: tuple          # 1-indexed variable read at each input gap
    rel0: list              # np.bool_ matrices, shapes follow layer widths
    rel1: list
    accept: np.ndarray      # shape (width,)
    uniform: bool = False

    @property
    def widths(self) -> list:
        return [1] + [self.width] * self.n + [1]

    def check_structured(self):
        if sorted(self.gap_var) != list(range(1, self.n + 1)):
            raise StructureError(
                f"gap variables {self.gap_var} are not a permutation of 1..{self.n}"
            )
        for g in range(self.n):
            want = (1 if g == 0 else self.width, self.width)
            for rel in (self.rel0[g], self.rel1[g]):
                if rel.shape != want:
                    raise StructureError(f"gap {g + 1} relation has shape {rel.shape}")

    def accepts(self, word) -> bool:
        """Run the BP on a word given in variable order."""
        word = np.asarray(word, dtype=np.uint8)
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
    return LayeredBp(
        n=n, width=w, gap_var=tuple(range(1, n + 1)),
        rel0=rel0, rel1=rel1, accept=accept, uniform=True,
    )


def parse_bp(text: str) -> LayeredBp:
    """Parse the structured-BP text format.

    Lines: ``gaps <n>``, ``states <w>``, ``start <q>``, ``final <q...>``,
    ``var <gap> <variable>`` (one per gap; defaults to the identity), and
    ``edge <gap> <p> <bit> <q>``.  Layer 0 is the start state alone; gap-1
    edges must leave the start state.  ``#`` starts a comment.
    """
    n = w = start = None
    finals: set[int] = set()
    var_lines: dict[int, int] = {}
    edges: list[tuple[int, int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        try:
            if toks[0] == "gaps" and len(toks) == 2:
                n = int(toks[1])
            elif toks[0] == "states" and len(toks) == 2:
                w = int(toks[1])
            elif toks[0] == "start" and len(toks) == 2:
                start = int(toks[1])
            elif toks[0] == "final":
                finals.update(int(t) for t in toks[1:])
            elif toks[0] == "var" and len(toks) == 3:
                g, v = int(toks[1]), int(toks[2])
                if g in var_lines and var_lines[g] != v:
                    raise StructureError(
                        f"line {lineno}: gap {g} assigned two variables"
                    )
                var_lines[g] = v
            elif toks[0] == "edge" and len(toks) == 5:
                edges.append(tuple(int(t) for t in toks[1:]))
            else:
                raise StructureError(f"line {lineno}: unrecognized line {line!r}")
        except ValueError:
            raise StructureError(f"line {lineno}: non-integer field") from None
    if n is None or w is None or start is None:
        raise StructureError("missing 'gaps', 'states' or 'start' line")
    gap_var = tuple(var_lines.get(g, g) for g in range(1, n + 1))
    rel0 = [np.zeros((1 if g == 0 else w, w), dtype=bool) for g in range(n)]
    rel1 = [np.zeros((1 if g == 0 else w, w), dtype=bool) for g in range(n)]
    for g, p, b, q in edges:
        if not (1 <= g <= n) or not (0 <= p < w) or not (0 <= q < w) or b not in (0, 1):
            raise StructureError(f"bad edge ({g},{p},{b},{q})")
        if g == 1:
            if p != start:
                raise StructureError("gap-1 edges must leave the start state")
            p = 0
        (rel1 if b else rel0)[g - 1][p, q] = True
    accept = np.zeros(w, dtype=bool)
    for f in finals:
        if not (0 <= f < w):
            raise StructureError(f"final state {f} out of range")
        accept[f] = True
    bp = LayeredBp(n=n, width=w, gap_var=gap_var, rel0=rel0, rel1=rel1,
                   accept=accept, uniform=False)
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


def _layout(bp: LayeredBp, nodes) -> ProofLayout:
    widths = bp.widths
    labels = []
    off = bp.n
    for node in nodes:
        pb = _bits_for(widths[node.lo])
        qb = _bits_for(widths[node.hi])
        labels.append((node.lo, node.hi, off, pb, qb))
        node.offset = off
        node.bits = pb + qb
        off += pb + qb
    return ProofLayout(n=bp.n, m=off, labels=labels)


# ---------------------------------------------------------------------------
# reachability and witnesses


class _Engine:
    """Per-synthesis cache of reach matrices and feasibility witnesses."""

    def __init__(self, bp: LayeredBp):
        self.bp = bp
        self.N = bp.n + 1  # tree covers (0, n+1]
        self.widths = bp.widths
        self._reach: dict = {}
        self._wit: dict = {}

    def key(self, node: Node):
        if self.bp.uniform:
            return (node.hi - node.lo, node.lo == 0, node.hi == self.N)
        return (node.lo, node.hi)

    def gap_any(self, g: int) -> np.ndarray:
        """Combined relation for gap g (1..n input gaps, n+1 acceptance)."""
        if g <= self.bp.n:
            return self.bp.rel0[g - 1] | self.bp.rel1[g - 1]
        return self.bp.accept[:, None]

    def reach(self, node: Node) -> np.ndarray:
        key = self.key(node)
        r = self._reach.get(key)
        if r is None:
            if node.is_leaf:
                r = self.gap_any(node.hi)
            else:
                r = self.reach(node.left) @ self.reach(node.right)
            self._reach[key] = r
        return r

    def witness(self, node: Node):
        """(feasible matrix, witness words, nontrivial word positions).

        ``words[p, q]`` is the word patched in for label (p, q): the bits
        read along the lexicographically smallest state sequence from p at
        the left boundary to q at the right one (bit 0 preferred on parallel
        edges).  The acceptance gap contributes no bit.  ``nontrivial`` lists
        the relative word positions where some feasible pair has a 1.
        """
        key = self.key(node)
        got = self._wit.get(key)
        if got is not None:
            return got
        lo, hi = node.lo, node.hi
        wl, wh = self.widths[lo], self.widths[hi]
        n_words = (hi - lo) - (1 if hi == self.N else 0)
        feas = self.reach(node)
        words = np.zeros((wl, wh, n_words), dtype=np.uint8)

        # per-gap successor masks and backward reach column masks, as ints
        succ_any, succ0 = [], []
        for g in range(lo + 1, hi + 1):
            rel = self.gap_any(g)
            succ_any.append([_row_mask(rel[p]) for p in range(rel.shape[0])])
            if g <= self.bp.n:
                rel0 = self.bp.rel0[g - 1]
                succ0.append([_row_mask(rel0[p]) for p in range(rel0.shape[0])])
            else:
                succ0.append(None)
        # colmask[t][q]: states at layer lo+t that reach q at layer hi
        L = hi - lo
        colmask = [None] * (L + 1)
        colmask[L] = [1 << q for q in range(wh)]
        for t in range(L - 1, -1, -1):
            nxt = colmask[t + 1]
            rows = succ_any[t]
            width_t = len(rows)
            cm = []
            for q in range(wh):
                target = nxt[q]
                m = 0
                for p in range(width_t):
                    if rows[p] & target:
                        m |= 1 << p
                cm.append(m)
            colmask[t] = cm

        for p in range(wl):
            for q in range(wh):
                if not feas[p, q]:
                    continue
                cur = p
                for t in range(L):
                    allowed = succ_any[t][cur] & colmask[t + 1][q]
                    nxt_state = (allowed & -allowed).bit_length() - 1
                    if t < n_words:
                        bit0 = succ0[t][cur]
                        words[p, q, t] = 0 if (bit0 >> nxt_state) & 1 else 1
                    cur = nxt_state
        if n_words:
            nontrivial = [
                t for t in range(n_words)
                if bool((words[:, :, t][feas]).any())
            ]
        else:
            nontrivial = []
        got = (feas, words, nontrivial)
        self._wit[key] = got
        return got


def _row_mask(row: np.ndarray) -> int:
    m = 0
    for j in np.nonzero(row)[0]:
        m |= 1 << int(j)
    return m


# ---------------------------------------------------------------------------
# synthesis


def _synth(bp: LayeredBp):
    n, w = bp.n, bp.width
    eng = _Engine(bp)
    tree = build_tree(0, eng.N)
    nodes = preorder(tree)
    layout = _layout(bp, nodes)
    if not eng.reach(tree).any():
        raise SynthesisError(f"language slice at length {n} is empty")

    b = CircuitBuilder(layout.m)
    word = [b.input(i) for i in range(n)]  # a_1..a_n in variable order
    widths = bp.widths

    def label_wires(node: Node):
        pb = _bits_for(widths[node.lo])
        qb = _bits_for(widths[node.hi])
        ws = [b.input(node.offset + i) for i in range(node.bits)]
        return ws[:pb], ws[pb:]

    pq = {id(node): label_wires(node) for node in nodes}

    # feasibility per node, from its own label
    table_cache: dict = {}

    def cached_table(tag, key, fields, fn):
        """Deduplicate identical predicate lowings per (tag, key, wires)."""
        wires_key = tuple(tuple(ws) for ws, _ in fields)
        ck = (tag, key, wires_key)
        wire = table_cache.get(ck)
        if wire is None:
            wire = lower_fields(b, fields, fn)
            table_cache[ck] = wire
        return wire

    feas = {}
    for node in nodes:
        r = eng.reach(node)
        pw, qw = pq[id(node)]
        feas[id(node)] = cached_table(
            "feas", eng.key(node),
            [(pw, widths[node.lo]), (qw, widths[node.hi])],
            lambda p, q, r=r: r[p, q],
        )

    # leaf local consistency; gap k reads word bit a_{gap_var[k-1]}
    lcons = {}
    for node in nodes:
        if not node.is_leaf or node.hi > n:
            continue
        k = node.hi
        rel0, rel1 = bp.rel0[k - 1], bp.rel1[k - 1]
        pw, qw = pq[id(node)]
        a = word[bp.gap_var[k - 1] - 1]
        lcons[id(node)] = lower_fields(
            b,
            [([a], None), (pw, widths[node.lo]), (qw, widths[node.hi])],
            lambda abit, p, q, rel0=rel0, rel1=rel1: (rel1 if abit else rel0)[p, q],
        )

    # internal-node consistency: children labels chain and everyone is feasible
    cons = {}
    internal = [node for node in nodes if not node.is_leaf]
    for node in internal:
        pw, qw = pq[id(node)]
        lp, lq = pq[id(node.left)]
        rp, rq = pq[id(node.right)]
        wmid = widths[node.left.hi]
        eqs = [
            cached_table("eq", widths[node.lo],
                         [(pw, widths[node.lo]), (lp, widths[node.lo])],
                         lambda x, y: x == y),
            cached_table("eq", wmid, [(lq, wmid), (rp, wmid)], lambda x, y: x == y),
            cached_table("eq", widths[node.hi],
                         [(qw, widths[node.hi]), (rq, widths[node.hi])],
                         lambda x, y: x == y),
        ]
        cons[id(node)] = b.and_tree_f(
            eqs + [feas[id(node)], feas[id(node.left)], feas[id(node.right)]]
        )

    # AND of consistency over all internal ancestors, for every internal node
    pathand = chain_ands(b, internal, cons)

    # consistency-like bit of an arbitrary non-root node, for patch selection
    def cons_like(node: Node) -> int:
        if node.is_leaf:
            return lcons[id(node)] if node.hi <= n else feas[id(node)]
        return cons[id(node)]

    sel = {}  # node -> (not cons_like(node)) AND pathand(parent)
    for node in nodes:
        if node.parent is None:
            continue
        sel[id(node)] = b.and_f(
            b.not_f(cons_like(node)), pathand[id(node.parent)]
        )

    root_feas, root_words, _ = eng.witness(tree)
    outputs = [None] * n
    for k in range(1, n + 1):
        leaf = leaf_for_position(tree, k)
        terms = [
            b.and_tree_f([
                word[bp.gap_var[k - 1] - 1],
                lcons[id(leaf)],
                pathand[id(leaf.parent)],
            ])
        ]
        # patch from the highest inconsistent node on the path: its parent is
        # then fully consistent, so its label is forced feasible and the
        # patch witnesses tile the word into one accepted s-t path
        node = leaf
        while node.parent is not None:
            _, words, nontrivial = eng.witness(node)
            rel = k - node.lo - 1
            if rel in nontrivial:
                pw, qw = pq[id(node)]
                wit = cached_table(
                    ("wit", rel), eng.key(node),
                    [(pw, widths[node.lo]), (qw, widths[node.hi])],
                    lambda p, q, words=words, rel=rel: words[p, q, rel],
                )
                terms.append(b.and_f(wit, sel[id(node)]))
            node = node.parent
        # inconsistent root: patch with the hardwired s-t witness
        if root_words[0, 0, k - 1]:
            terms.append(b.not_f(cons[id(tree)]))
        outputs[bp.gap_var[k - 1] - 1] = b.or_tree_f(terms)
    b.set_outputs(outputs)
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


def _encode(value: int, bits: int, out: np.ndarray, offset: int):
    for i in range(bits):
        out[offset + i] = (value >> (bits - 1 - i)) & 1


def witness_bp(bp: LayeredBp, word) -> np.ndarray:
    """Proof vector whose evaluation reproduces the given member word."""
    word = _as_bits(word, what="word")
    if len(word) != bp.n:
        raise WitnessError(f"word length {len(word)} != {bp.n}")
    if not bp.accepts(word):
        raise WitnessError("word is not in the language")
    # lexicographically smallest accepting state sequence through the BP
    N = bp.n + 1
    widths = bp.widths
    rels = []
    for g in range(1, N + 1):
        if g <= bp.n:
            bit = word[bp.gap_var[g - 1] - 1]
            rels.append(bp.rel1[g - 1] if bit else bp.rel0[g - 1])
        else:
            rels.append(bp.accept[:, None])
    back = [None] * (N + 1)  # back[t][q]: q at layer t reaches the sink
    back[N] = np.ones(1, dtype=bool)
    for t in range(N - 1, -1, -1):
        back[t] = rels[t] @ back[t + 1]
    states = [0]
    cur = 0
    for t in range(N):
        ok = rels[t][cur] & back[t + 1]
        cur = int(np.nonzero(ok)[0][0])
        states.append(cur)

    tree = build_tree(0, N)
    nodes = preorder(tree)
    layout = _layout(bp, nodes)
    proof = np.zeros(layout.m, dtype=np.uint8)
    proof[: bp.n] = word
    for node in nodes:
        pb = _bits_for(widths[node.lo])
        qb = _bits_for(widths[node.hi])
        _encode(states[node.lo], pb, proof, node.offset)
        _encode(states[node.hi], qb, proof, node.offset + pb)
    return proof


def witness_regular(automaton, word) -> np.ndarray:
    """Proof vector for synth_regular(automaton, len(word))."""
    return witness_bp(unroll(automaton, len(word)), word)
