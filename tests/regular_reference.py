"""Per-node regular synthesis, the reference for the stamped build.

This is the gate-by-gate construction :mod:`rangesynth.regular` had before
it stamped its label tables, over the tables it walked gap by gap before it
composed them (:func:`tables_reference`): every node's feasibility, leaf
check, label equalities and patches are lowered one node at a time and
replayed gate by gate (``circuit_reference.lower_fields_replay``), and
:func:`patched_outputs` and :func:`chain_ands` walk the nodes one at a time
with the scalar builder calls.  ``tests/counting_reference.py`` builds
its per-node counting circuits on the same two functions.  The stamped build
must give the same circuit up to gate numbering (``tests/structure.py``).

:func:`witness_walk` is the numpy witness :mod:`rangesynth.regular` had
before it walked words over Python-int successor masks: a deterministic BP
runs its word through the :func:`_successors` table (:func:`_run`), and any
other takes :func:`_back`'s n width x width reach products and
:func:`_walk`'s argmaxes.  ``test_witness_run.py`` holds the mask walk to it.
"""

import numpy as np

from rangesynth.circuit import CircuitBuilder, _as_bits
from rangesynth.regular import SynthesisError, WitnessError, _layout, _plan, unroll
from tests.circuit_reference import lower_fields_replay as lower_fields


def _back(rels) -> list:
    """Backward reach products along a chain of gap relations: ``back[t][s, q]``
    says state s before gap t reaches state q after the last gap."""
    back = [np.eye(rels[-1].shape[1], dtype=bool)]
    for rel in reversed(rels):
        back.append(rel @ back[-1])
    return back[::-1]


def _walk(rels, back, p, q) -> list:
    """Lexicographically smallest state sequence from p to q along ``rels``:
    each step takes the smallest state that still reaches q.  p and q are
    equal-length index arrays, walked side by side, or two states."""
    states = [p]
    for rel, tail in zip(rels, back[1:]):
        states.append((rel[states[-1]] & tail[:, q].T).argmax(axis=-1))
    return states


def _successors(bp):
    """The run table of a deterministic BP, or None if it is not one.

    A BP is deterministic when every row of every gap relation has exactly
    one successor, as in every DFA unrolling.  ``succ[b, g, p]`` is then the
    state that gap g+1 leads state p to on bit b; gap 1's single row fills
    its whole row of the table.  One pass over all the relations' rows.
    """
    n, w = bp.n, bp.width
    # an automaton unrolling repeats one relation pair over gaps 2..n, so
    # its last gap refuses a nondeterministic one without the full pass
    last0, last1 = bp.rel0[-1], bp.rel1[-1]
    if np.count_nonzero(last0) + np.count_nonzero(last1) != 2 * len(last0):
        return None
    rows, succ = np.nonzero(np.concatenate(bp.rel0 + bp.rel1))
    total = 2 * (1 + (n - 1) * w)
    if len(rows) != total or not np.array_equal(rows, np.arange(total)):
        return None  # some row has no successor or several
    succ = succ.reshape(2, -1)
    table = np.empty((2, n, w), dtype=np.intp)
    table[:, 0] = succ[:, :1]
    table[:, 1:] = succ[:, 1:].reshape(2, n - 1, w)
    table.flags.writeable = False
    return table


def _run(succ, bits) -> list:
    """The states at layers 0..n of the run on ``bits`` (in gap order)."""
    state, states = 0, [0]
    for row in succ[bits, np.arange(len(bits))].tolist():
        state = row[state]
        states.append(state)
    return states


def witness_walk(bp, word, run: bool = True):
    """``witness_bp`` as numpy tables: the run of a deterministic BP (unless
    ``run`` is False), else the reach products and the walk."""
    bp.check_structured()
    word = _as_bits(word, (bp.n,), "word", WitnessError)
    succ = _successors(bp) if run else None
    if succ is not None:  # deterministic: the run is the only path
        states = _run(succ, word[np.fromiter(bp.gap_var, np.intp, bp.n) - 1])
        if not bp.accept[states[-1]]:
            raise WitnessError("word is not in the language")
        states = np.array(states + [0])  # and the sink
    else:
        bits = word.tolist()
        rels = [(bp.rel1 if bits[v - 1] else bp.rel0)[g] for g, v in enumerate(bp.gap_var)]
        rels.append(bp.accept[:, None])
        back = _back(rels)
        if not back[0][0, 0]:
            raise WitnessError("word is not in the language")
        states = np.array(_walk(rels, back, 0, 0))

    plan, q_bits = _plan(bp.n, bp.width)[:2]
    proof = np.empty(plan.m, dtype=np.uint8)
    proof[: bp.n] = word
    plan.write(proof, (states[plan.lo] << q_bits) | states[plan.hi])
    return proof


def tables_reference(bp, lo: int, hi: int):
    """(feas, words, nontrivial) of node (lo, hi], walked gap by gap.

    The gap walk ``regular._Engine`` had before it composed each node's
    tables from its children's: :func:`_back` multiplies the node's
    either-bit relations from the right (the first product is the
    feasibility table) and :func:`_walk` steps from every feasible (p, q)
    along the smallest state that still reaches q; the word reads bit 0
    where the step has a 0-edge.  Same contract as an ``_Engine`` entry.
    """
    gaps = range(lo + 1, min(hi, bp.n) + 1)  # the gaps that read a bit
    rels = [bp.rel0[g - 1] | bp.rel1[g - 1] for g in gaps]
    if hi > bp.n:
        rels.append(bp.accept[:, None])
    back = _back(rels)
    p, q = np.nonzero(back[0])
    states = _walk(rels, back, p, q)
    words = np.zeros(back[0].shape + (len(gaps),), dtype=np.uint8)
    for t, g in enumerate(gaps):
        words[p, q, t] = ~bp.rel0[g - 1][states[t], states[t + 1]]
    return back[0], words, set(np.flatnonzero(words[p, q].any(axis=0)).tolist())


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


def patched_outputs(b, plan, cons, word_bits, patch) -> list:
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


def _synth(bp):
    n, widths = bp.n, bp.widths
    # nodes of one length share tables when gaps 2..n share relations
    uniform = all(np.array_equal(r0, bp.rel0[1]) and np.array_equal(r1, bp.rel1[1])
                  for r0, r1 in zip(bp.rel0[1:], bp.rel1[1:]))
    tables = {}

    def tables_of(u):
        key = (hi[u] - lo[u], lo[u] == 0, hi[u] == n + 1) if uniform else (lo[u], hi[u])
        if key not in tables:
            tables[key] = tables_reference(bp, lo[u], hi[u])
        return tables[key]

    plan, layout = _layout(bp)
    lo, hi, right = (a.tolist() for a in (plan.lo, plan.hi, plan.right))
    if not tables_of(0)[0].any():
        raise SynthesisError(f"language slice at length {n} is empty")

    b = CircuitBuilder(layout.m)
    word = b.inputs(0, n)  # a_1..a_n in variable order
    pq = []  # each node's (p wires, q wires)
    for _, _, off, pb, qb in layout.labels:
        ws = b.inputs(off, pb + qb)
        pq.append((ws[:pb], ws[pb:]))

    def label_table(u: int, fn):
        """A predicate of node u's own (p, q) label."""
        pw, qw = pq[u]
        return lower_fields(b, [(pw, widths[lo[u]]), (qw, widths[hi[u]])], fn)

    feas = [label_table(u, lambda p, q, r=tables_of(u)[0]: r[p, q])
            for u in range(len(lo))]

    def eq(xs, ys, width):
        return lower_fields(b, [(xs, width), (ys, width)], lambda x, y: x == y)

    def cons(u: int) -> int:
        pw, qw = pq[u]
        if right[u] < 0 and hi[u] > n:  # acceptance gap: feasibility alone
            return feas[u]
        if right[u] < 0:  # gap k reads word bit a_{gap_var[k-1]}
            rel0, rel1 = bp.rel0[hi[u] - 1], bp.rel1[hi[u] - 1]
            return lower_fields(
                b,
                [([word[bp.gap_var[hi[u] - 1] - 1]], None),
                 (pw, widths[lo[u]]), (qw, widths[hi[u]])],
                lambda a, p, q: np.where(a, rel1[p, q], rel0[p, q]),
            )
        # children labels chain and everyone is feasible
        (lp, lq), (rp, rq) = pq[u + 1], pq[right[u]]
        return b.and_tree([
            eq(pw, lp, widths[lo[u]]), eq(lq, rp, widths[lo[right[u]]]),
            eq(qw, rq, widths[hi[u]]),
            feas[u], feas[u + 1], feas[right[u]],
        ])

    def patch(u: int, k: int):
        """Bit k of the witness word for node u's label; the parent of the
        topmost inconsistent node is consistent, so that label is feasible
        and the patches tile the word into one accepted s-t path.  The root's
        label is hardwired, so its table has no wires and lowers to a
        constant."""
        _, words, nontrivial = tables_of(u)
        rel = k - lo[u] - 1
        if rel not in nontrivial:
            return None
        return label_table(u, lambda p, q: words[p, q, rel])

    outs = patched_outputs(b, plan, cons, [word[v - 1] for v in bp.gap_var], patch)
    b.set_outputs([outs[k] for k in np.argsort(bp.gap_var)])
    return b.build(), layout


def synth_regular(automaton, n: int):
    return _synth(unroll(automaton, n))


def synth_structured(bp):
    bp.check_structured()
    return _synth(bp)
