"""Regular-language synthesis: unrolling, interval-tree construction, witnesses.

The heavyweight check here is a pure-Python reference decoder implementing
the documented output rule (verbatim bits on fully consistent paths, patch
from the topmost inconsistent node's label witness, whole-word fallback at
an inconsistent root).  The synthesized circuit must agree with it on every
proof input at small n.
"""

import itertools

import numpy as np
import pytest

from rangesynth import regular
from rangesynth.circuit import eval_batch, eval_circuit
from rangesynth.languages import Regular, member
from rangesynth.regular import (
    LayeredBp,
    StructureError,
    SynthesisError,
    WitnessError,
    _Engine,
    parse_bp,
    synth_regular,
    synth_structured,
    unroll,
    witness_bp,
    witness_regular,
)
from tests.conftest import XX_BP, exact_range, random_proofs, slice_set
from tests.witness_reference import build_tree, path_to_leaf


class TestUnroll:
    def test_parity_shape(self, parity):
        bp = unroll(parity, 2)
        assert list(bp.widths) == [1, 2, 2, 1]
        assert bp.n == 2

    def test_paths_match_runs(self, parity):
        bp = unroll(parity, 3)
        for w in itertools.product((0, 1), repeat=3):
            assert bp.accepts(list(w)) == parity.accepts(list(w))

    def test_nfa_parallel_edges(self, nfa1):
        bp = unroll(nfa1, 2)
        # start has two 1-successors in the first gap
        assert int(bp.rel1[0].sum()) == 2


class TestParseBp:
    def test_xx_bp(self):
        bp = parse_bp(XX_BP)
        assert bp.n == 4 and bp.width == 2
        assert bp.gap_var == (1, 3, 2, 4)

    def test_gap_vars_must_permute(self):
        bad = XX_BP.replace("var 4 4", "var 4 1")
        with pytest.raises(StructureError):
            parse_bp(bad)

    @pytest.mark.parametrize("edit, line", [
        pytest.param(("gaps 4", "gaps 0"), 1, id="no-gaps"),
        pytest.param(("gaps 4", "gaps -1"), 1, id="negative-gaps"),
        pytest.param(("states 2", "states 0"), 2, id="no-states"),
        pytest.param(("start 0", "start 2"), 3, id="start-out-of-range"),
        pytest.param(("var 4 4", "var 4 4\nvar 7 1"), 9, id="var-gap-out-of-range"),
        pytest.param(("final 0", "final 2"), 4, id="final-out-of-range"),
        pytest.param(("edge 4 1 1 0", "edge 5 1 1 0"), 16, id="edge-gap-out-of-range"),
        pytest.param(("edge 1 0 1 1", "edge 1 1 1 1"), 10, id="edge-off-start"),
    ])
    def test_malformed_fields_name_their_line(self, edit, line):
        with pytest.raises(StructureError, match=f"^line {line}: "):
            parse_bp(XX_BP.replace(*edit))

    def test_api_bp_without_gaps_rejected(self):
        bp = LayeredBp(n=0, width=1, gap_var=(), rel0=[], rel1=[],
                       accept=np.ones(1, dtype=bool))
        with pytest.raises(StructureError):
            synth_structured(bp)

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda bp: setattr(bp, "rel0", [r.astype(np.int64) for r in bp.rel0]),
                     "rel0 gap 1 relation must be a bool array, got dtype int64", id="int-rel0"),
        pytest.param(lambda bp: bp.rel1.__setitem__(2, bp.rel1[2].astype(np.uint8)),
                     "rel1 gap 3 relation must be a bool array, got dtype uint8",
                     id="uint8-rel1-gap3"),
        pytest.param(lambda bp: bp.rel0.__setitem__(1, bp.rel0[1].tolist()),
                     "rel0 gap 2 relation must be a bool array, got list", id="list-rel0-gap2"),
        pytest.param(lambda bp: bp.rel1.pop(),
                     "rel1 has 2 relations for 3 gaps", id="missing-rel1"),
        pytest.param(lambda bp: setattr(bp, "accept", bp.accept.astype(np.int64)),
                     r"accept must be a bool array of shape \(2,\), got shape \(2,\) and "
                     "dtype int64", id="int-accept"),
        pytest.param(lambda bp: setattr(bp, "accept", np.ones(3, dtype=bool)),
                     r"accept must be a bool array of shape \(2,\), got shape \(3,\)",
                     id="long-accept"),
        pytest.param(lambda bp: setattr(bp, "accept", [True, False]),
                     r"accept must be a bool array of shape \(2,\), got list", id="list-accept"),
    ])
    def test_api_bp_fields_must_be_boolean_and_shaped(self, parity, edit, message):
        """Int relations would patch through ``~`` as -1/-2 (parity at n=3
        as 0/1 int64 matrices gave a circuit whose range was all 8 words),
        and a misshapen ``accept`` failed inside numpy or went unread by
        the witness; both entry points now refuse them and name the field."""
        bp = unroll(parity, 3)
        edit(bp)
        with pytest.raises(StructureError, match=message):
            synth_structured(bp)
        with pytest.raises(StructureError, match=message):
            witness_bp(bp, [1, 1, 0])


# ---------------------------------------------------------------------------
# reference decoder


def _clamp(val, width):
    return min(val, width - 1)


def _decode_labels(layout, widths, proof):
    """Pre-order list of (lo, hi, p, q) from the label slots (MSB first)."""
    out = []
    for lo, hi, off, p_bits, q_bits in layout.labels:
        p = 0
        for i in range(p_bits):
            p = (p << 1) | int(proof[off + i])
        q = 0
        for i in range(q_bits):
            q = (q << 1) | int(proof[off + p_bits + i])
        out.append((lo, hi, _clamp(p, widths[lo]), _clamp(q, widths[hi])))
    return out


def _gap_any(bp, g):
    if g <= bp.n:
        return bp.rel0[g - 1] | bp.rel1[g - 1]
    return bp.accept[:, None]


_REACH_MEMO = {}  # id(bp) -> (bp, {(lo, hi): reach}); holding bp keeps ids unique


def _reach(bp, lo, hi):
    memo = _REACH_MEMO.setdefault(id(bp), (bp, {}))[1]
    r = memo.get((lo, hi))
    if r is None:
        r = np.eye(bp.widths[lo], dtype=bool)
        for g in range(lo + 1, hi + 1):
            r = r @ _gap_any(bp, g)
        memo[lo, hi] = r
    return r


def _witness_bit(bp, lo, hi, p, q, rel):
    """Bit rel of the lexicographically-smallest-states witness for (p, q)."""
    L = hi - lo
    n_words = L - (1 if hi == bp.n + 1 else 0)
    assert 0 <= rel < n_words
    cur = p
    for t in range(L):
        g = lo + t + 1
        rel_any = _gap_any(bp, g)
        tail = _reach(bp, lo + t + 1, hi)
        nxt = min(
            s for s in range(rel_any.shape[1]) if rel_any[cur, s] and tail[s, q]
        )
        if t == rel:
            return 0 if (g <= bp.n and bp.rel0[g - 1][cur, nxt]) else 1
        cur = nxt
    raise AssertionError("unreachable")


def reference_decode(bp, layout, proof):
    """Independent implementation of the output rule."""
    n = bp.n
    widths = bp.widths
    a = [int(b) for b in proof[:n]]
    labels = {
        (lo, hi): (p, q) for lo, hi, p, q in _decode_labels(layout, widths, proof)
    }
    labels[(0, n + 1)] = (0, 0)  # root label hardwired <s, t>
    tree = build_tree(0, n + 1)

    def feas(node):
        p, q = labels[(node.lo, node.hi)]
        return bool(_reach(bp, node.lo, node.hi)[p, q])

    def cons_like(node):
        p, q = labels[(node.lo, node.hi)]
        if node.is_leaf:
            if node.hi == n + 1:
                return bool(bp.accept[p])
            bit = a[bp.gap_var[node.hi - 1] - 1]
            rel = bp.rel1[node.hi - 1] if bit else bp.rel0[node.hi - 1]
            return bool(rel[p, q])
        pl, ql = labels[(node.left.lo, node.left.hi)]
        pr, qr = labels[(node.right.lo, node.right.hi)]
        return (
            p == pl and ql == pr and q == qr
            and feas(node) and feas(node.left) and feas(node.right)
        )

    word = []
    for k in range(1, n + 1):
        path = path_to_leaf(tree, k)  # root ... leaf
        bad = next((x for x in path if not cons_like(x)), None)
        if bad is None:
            word.append(a[bp.gap_var[k - 1] - 1])
        else:
            p, q = labels[(bad.lo, bad.hi)]
            word.append(_witness_bit(bp, bad.lo, bad.hi, p, q, k - bad.lo - 1))
    out = [0] * n
    for k in range(1, n + 1):
        out[bp.gap_var[k - 1] - 1] = word[k - 1]
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_circuit_matches_reference_decoder_parity(parity, n):
    bp = unroll(parity, n)
    c, layout = synth_regular(parity, n)
    rows = np.array(
        list(itertools.product((0, 1), repeat=c.num_inputs)), dtype=np.uint8
    )
    outs = eval_batch(c, rows)
    for proof, out in zip(rows, outs):
        assert list(out) == reference_decode(bp, layout, proof)


def _decode_keys(bp, layout, rows) -> np.ndarray:
    """Per proof, everything :func:`reference_decode` reads as one integer:
    the word bits and every node's clamped (p, q) label (MSB first), in
    mixed radix."""
    key = np.zeros(len(rows), dtype=np.int64)
    for i in range(bp.n):
        key = 2 * key + rows[:, i]
    for lo, hi, off, p_bits, q_bits in layout.labels:
        for start, nbits, width in ((off, p_bits, bp.widths[lo]),
                                    (off + p_bits, q_bits, bp.widths[hi])):
            value = np.zeros(len(rows), dtype=np.int64)
            for i in range(start, start + nbits):
                value = 2 * value + rows[:, i]
            key = width * key + np.minimum(value, width - 1)
    return key


def test_circuit_matches_reference_decoder_th2(th2):
    """Every proof of the n=3 circuit, decoded once per distinct key: the
    524,288 proofs carry 8 words times 3^8 clamped label tuples."""
    bp = unroll(th2, 3)
    c, layout = synth_regular(th2, 3)
    m = c.num_inputs
    rows = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(np.uint8)
    keys, first, inverse = np.unique(_decode_keys(bp, layout, rows),
                                     return_index=True, return_inverse=True)
    assert len(keys) == 8 * 3 ** 8
    decoded = np.array([reference_decode(bp, layout, rows[i]) for i in first],
                       dtype=np.uint8)
    assert np.array_equal(eval_batch(c, rows), decoded[inverse])


def test_circuit_matches_reference_decoder_structured():
    bp = parse_bp(XX_BP)
    c, layout = synth_structured(bp)
    rows = np.array(
        list(itertools.product((0, 1), repeat=c.num_inputs)), dtype=np.uint8
    )
    outs = eval_batch(c, rows)
    for proof, out in zip(rows, outs):
        assert list(out) == reference_decode(bp, layout, proof)


def _check_random_proofs(bp, c, layout, seed):
    rng = np.random.default_rng(seed)
    members = [w for w in rng.integers(0, 2, (64, bp.n)) if bp.accepts(w)]
    rows = random_proofs(c.num_inputs, [witness_bp(bp, w) for w in members],
                         seed=seed)
    for proof, out in zip(rows, eval_batch(c, rows)):
        assert list(out) == reference_decode(bp, layout, proof)


@pytest.mark.parametrize("name", ["parity", "th2", "mod3", "nfa1"])
@pytest.mark.parametrize("n", [5, 8, 13])
def test_random_proofs_match_reference_decoder(name, n, request):
    automaton = request.getfixturevalue(name)
    _check_random_proofs(unroll(automaton, n), *synth_regular(automaton, n), seed=n)


def test_random_proofs_match_reference_decoder_structured():
    bp = parse_bp(XX_BP)
    _check_random_proofs(bp, *synth_structured(bp), seed=4)


def _bp_text(n, w, finals, gap_var, edges):
    """Structured-BP text; ``edges[g - 1]`` lists gap g's (p, bit, q)."""
    lines = [f"gaps {n}", f"states {w}", "start 0",
             "final " + " ".join(map(str, finals))]
    lines += [f"var {g} {v}" for g, v in enumerate(gap_var, 1)]
    lines += [f"edge {g} {p} {a} {q}"
              for g, es in enumerate(edges, 1) for p, a, q in es]
    return "\n".join(lines) + "\n"


def _random_bp(rng, shared):
    """Random structured BP, n <= 8 and width <= 3, with a random variable
    order; ``shared`` gives gaps 2..n one common relation pair."""
    n, w = int(rng.integers(1, 9)), int(rng.integers(1, 4))
    dens = rng.uniform(0.3, 0.8)

    def rel(rows):
        return [(p, a, q) for p in range(rows) for a in (0, 1) for q in range(w)
                if rng.random() < dens]

    middle = rel(w)
    edges = [rel(1)] + [middle if shared else rel(w) for _ in range(n - 1)]
    finals = [q for q in range(w) if rng.random() < 0.5] or [w - 1]
    return parse_bp(_bp_text(n, w, finals, rng.permutation(n) + 1, edges))


_RANDOM_BPS = [_random_bp(np.random.default_rng(i), shared=i % 2 == 1)
               for i in range(40)]


@pytest.mark.parametrize("name", ["parity", "th2", "mod3", "nfa1"])
@pytest.mark.parametrize("n", [5, 8, 13])
def test_engine_tables_match_reference(name, n, request):
    _check_tables(unroll(request.getfixturevalue(name), n))


@pytest.mark.parametrize("bp", [parse_bp(XX_BP)] + _RANDOM_BPS)
def test_engine_tables_match_reference_structured(bp):
    _check_tables(bp)


def _check_tables(bp):
    """Every node's feasibility, witness words and nontrivial positions
    against the reference reach and walk."""
    eng = _Engine(bp)
    entry = dict(zip(zip(eng.plan.lo.tolist(), eng.plan.hi.tolist()), eng.key.tolist()))
    stack = [build_tree(0, bp.n + 1)]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            stack += [node.left, node.right]
        feas, words, nontrivial = eng.entries[entry[node.lo, node.hi]]
        assert np.array_equal(feas, _reach(bp, node.lo, node.hi))
        n_words = min(node.hi, bp.n) - node.lo
        assert words.shape == feas.shape + (n_words,)
        assert not words[~feas].any()
        for p, q in zip(*np.nonzero(feas)):
            for rel in range(n_words):
                want = _witness_bit(bp, node.lo, node.hi, p, q, rel)
                assert words[p, q, rel] == want, (node.lo, node.hi, p, q, rel)
        assert nontrivial == {t for t in range(n_words) if words[feas, t].any()}


# ---------------------------------------------------------------------------
# ranges, witnesses, errors


class TestSynthRegular:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_parity_range(self, parity, n):
        c, _ = synth_regular(parity, n)
        assert exact_range(c) == slice_set(parity.accepts, n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_nfa_range(self, nfa1, n):
        c, _ = synth_regular(nfa1, n)
        assert exact_range(c) == slice_set(nfa1.accepts, n)

    def test_empty_slice_is_an_error(self, th2):
        with pytest.raises(SynthesisError):
            synth_regular(th2, 1)

    def test_honest_proof_reproduces_word(self, parity):
        c, _ = synth_regular(parity, 2)
        proof = witness_regular(parity, [1, 1])
        assert eval_circuit(c, proof) == [1, 1]

    def test_mismatched_root_children_fall_back_to_wst(self, parity):
        c, layout = synth_regular(parity, 2)
        proof = np.array(witness_regular(parity, [1, 1]), dtype=np.uint8)
        # root's children are (0,1] (q slot) and (1,3] (p slot); break the
        # shared boundary so the root goes inconsistent
        slots = {(lo, hi): (off, pb, qb) for lo, hi, off, pb, qb in layout.labels}
        off, pb, qb = slots[(1, 3)]
        proof[off] ^= 1
        # w_{s,t} for parity is the lexicographically smallest even word: 00
        assert eval_circuit(c, proof) == [0, 0]

    def test_non_member_witness_rejected(self, parity):
        with pytest.raises(WitnessError):
            witness_regular(parity, [1, 0])

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_witness_completeness(self, mod3, n):
        c, _ = synth_regular(mod3, n)
        for w in itertools.product((0, 1), repeat=n):
            if not mod3.accepts(list(w)):
                continue
            proof = witness_regular(mod3, list(w))
            assert eval_circuit(c, proof) == list(w)


class TestSynthStructured:
    def test_xx_range(self):
        c, _ = synth_structured(parse_bp(XX_BP))
        assert exact_range(c) == {
            bytes([0, 0, 0, 0]), bytes([0, 1, 0, 1]),
            bytes([1, 0, 1, 0]), bytes([1, 1, 1, 1]),
        }

    def test_unrolled_dfa_matches_synth_regular(self, parity):
        c1, _ = synth_regular(parity, 3)
        c2, _ = synth_structured(unroll(parity, 3))
        assert exact_range(c1) == exact_range(c2)

    def test_two_vars_in_one_gap_rejected(self):
        bad = XX_BP.replace("edge 2 1 1 0", "edge 2 1 1 0\nvar 2 4")
        with pytest.raises(StructureError):
            parse_bp(bad)

    @pytest.mark.parametrize("which", ["rel0", "rel1"])
    def test_one_differing_middle_gap_keeps_exact_range(self, parity, which):
        # gaps 2..n all equal except gap 3, so length-keyed tables would
        # patch in words the BP does not accept
        bp = unroll(parity, 4)
        rels = getattr(bp, which)
        rels[2] = np.roll(rels[2], 1, axis=1)
        c, _ = synth_structured(bp)
        assert exact_range(c) == slice_set(bp.accepts, 4)

    @pytest.mark.parametrize("parsed", [False, True])
    def test_shared_relations_build_log_n_tables(self, parity, parsed, monkeypatch):
        n = 1024
        bp = unroll(parity, n)
        if parsed:  # equal relations in separate arrays
            edges = [list(zip(*np.nonzero(np.stack([bp.rel0[g], bp.rel1[g]], axis=1))))
                     for g in range(n)]
            bp = parse_bp(_bp_text(n, 2, [0], range(1, n + 1), edges))
        built = []
        real_compose = regular._compose

        def counting_compose(*tables):  # one row per parent table built
            built.append(len(tables[0]))
            return real_compose(*tables)

        monkeypatch.setattr(regular, "_compose", counting_compose)
        synth_structured(bp)
        assert sum(built) <= 4 * (n + 1).bit_length()

    def test_witness_bp_roundtrip(self):
        bp = parse_bp(XX_BP)
        c, _ = synth_structured(bp)
        for x1, x2 in itertools.product((0, 1), repeat=2):
            w = [x1, x2, x1, x2]
            assert eval_circuit(c, witness_bp(bp, w)) == w
