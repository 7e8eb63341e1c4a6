"""Witness generators on cached layout plans: differential tests against the
per-word reference generators, the parameter refusals they share with
synthesis, and the bounds and sharing of their caches."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rangesynth import counting, intervals, regular
from rangesynth.cli import run
from rangesynth.counting import synth_exact_count, synth_threshold, witness_count
from rangesynth.languages import Dfa, LanguageError, Nfa, parse_dfa
from rangesynth.regular import (LayeredBp, StructureError, parse_bp, synth_structured,
                                unroll, witness_bp, witness_regular)
from tests import regular_reference
from tests import witness_reference as ref
from tests.conftest import MOD3_TXT, NFA1_TXT, PARITY_TXT
from tests.test_regular import _bp_text

_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _outcome(fn, *args):
    """The proof as bytes, or the error's type and text."""
    try:
        return fn(*args).tobytes()
    except ValueError as exc:  # WitnessError, StructureError, LanguageError
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# differential: regular and structured


@st.composite
def automata(draw):
    w = draw(st.integers(1, 4))
    start = draw(st.integers(0, w - 1))
    finals = frozenset(draw(st.sets(st.integers(0, w - 1))))
    if draw(st.booleans()):
        delta = tuple(tuple(draw(st.integers(0, w - 1)) for _ in (0, 1))
                      for _ in range(w))
        return Dfa(w, start, finals, delta)
    subsets = st.frozensets(st.integers(0, w - 1))
    delta = tuple(tuple(draw(subsets) for _ in (0, 1)) for _ in range(w))
    return Nfa(w, start, finals, delta)


@_SETTINGS
@given(automata(), st.integers(1, 10), st.data())
def test_witness_regular_matches_reference(automaton, n, data):
    bp = unroll(automaton, n)
    words = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                               min_size=1, max_size=8))
    for word in words:
        got = _outcome(witness_regular, automaton, word)
        assert got == _outcome(ref.witness_bp, bp, word)
        assert isinstance(got, bytes) == automaton.accepts(word)
    assert _outcome(witness_bp, bp, [0] * (n + 1)) == \
        _outcome(ref.witness_bp, bp, [0] * (n + 1))


@st.composite
def structured_bps(draw):
    n, w = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    triples = st.tuples(st.integers(0, w - 1), st.integers(0, 1), st.integers(0, w - 1))
    edges = [draw(st.lists(triples, max_size=2 * w * w)) for _ in range(n)]
    edges[0] = [(0, a, q) for _, a, q in edges[0]]
    order = draw(st.permutations(range(1, n + 1)))
    finals = draw(st.lists(st.integers(0, w - 1), min_size=1, max_size=w))
    return parse_bp(_bp_text(n, w, finals, order, edges))


@_SETTINGS
@given(structured_bps())
def test_witness_bp_matches_reference(bp):
    for k in range(1 << bp.n):
        word = [(k >> i) & 1 for i in range(bp.n)]
        got = _outcome(witness_bp, bp, word)
        assert got == _outcome(ref.witness_bp, bp, word)
        assert isinstance(got, bytes) == bp.accepts(word)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_proof_layout_matches_fresh_tree(width):
    counter = Dfa(width, 0, frozenset({0}),
                  tuple((p, (p + 1) % width) for p in range(width)))
    for n in range(1, 71):
        layout = regular._layout(unroll(counter, n))[1]
        assert layout.to_text() == ref.proof_layout_text(n, width)


def test_plan_is_the_reference_tree():
    for span in range(1, 301):
        nodes = ref.preorder(ref.build_tree(0, span))
        index = {id(node): i for i, node in enumerate(nodes)}
        plan = intervals.Plan(span, lambda lo, hi, parent: np.zeros_like(lo), 0)
        assert plan.lo.tolist() == [node.lo for node in nodes]
        assert plan.hi.tolist() == [node.hi for node in nodes]
        assert plan.parent.tolist() == [index.get(id(node.parent), -1) for node in nodes]
        assert plan.right.tolist() == [index.get(id(node.right), -1) for node in nodes]
        assert plan.m == 0


# ---------------------------------------------------------------------------
# differential: counting


def _count_cases():
    for n in range(1, 71):
        for t in sorted({0, 1, n // 2, n}):
            yield from (("exact", n, t),) + ((("threshold", n, t),) if t else ())


def test_witness_count_matches_reference():
    rng = np.random.default_rng(5)
    for kind, n, t in _count_cases():
        member = np.zeros(n, dtype=np.uint8)
        member[rng.permutation(n)[:t]] = 1
        words = [member, np.ones(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8),
                 rng.integers(0, 2, n), [0] * (n + 1)]
        for word in words:
            assert _outcome(witness_count, kind, n, t, word) == \
                _outcome(ref.witness_count, kind, n, t, word), (kind, n, t)
    assert _outcome(witness_count, "majority", 3, 1, [1, 0, 0]) == \
        _outcome(ref.witness_count, "majority", 3, 1, [1, 0, 0])


@pytest.mark.parametrize("synth", [synth_threshold, synth_exact_count])
def test_count_layout_matches_fresh_tree(synth):
    for n in range(1, 71, 3):
        assert synth(n, 1)[1].to_text() == ref.count_layout_text(n)


# ---------------------------------------------------------------------------
# refusals shared with synthesis


def _unstructured_bp():
    ones = [np.ones((1, 2), dtype=bool), np.ones((2, 2), dtype=bool)]
    return LayeredBp(n=2, width=2, gap_var=(1, 1), rel0=ones, rel1=list(ones),
                     accept=np.ones(2, dtype=bool))


def test_witness_bp_refuses_what_synthesis_refuses():
    bp = _unstructured_bp()
    with pytest.raises(StructureError) as refused:
        synth_structured(bp)
    with pytest.raises(StructureError) as exc:
        witness_bp(bp, [0, 1])
    assert str(exc.value) == str(refused.value) == \
        "gap variables (1, 1) are not a permutation of 1..2"


@pytest.mark.parametrize("kind,n,t", [
    ("threshold", 4, 0), ("threshold", 4, 5), ("exact", 4, -1), ("exact", 4, 5),
    ("exact", 0, 0), ("threshold", 0, 0), ("exact", -2, -2),
])
def test_witness_count_refuses_what_synthesis_refuses(kind, n, t):
    synth = synth_threshold if kind == "threshold" else synth_exact_count
    counting._plan.cache_clear()
    with pytest.raises(LanguageError) as refused:
        synth(n, t)
    with pytest.raises(LanguageError) as exc:
        witness_count(kind, n, t, [0] * max(n, 0))
    assert str(exc.value) == str(refused.value)
    assert counting._plan.cache_info().currsize == 0


@pytest.mark.parametrize("argv", [
    ["witness", "--lang", "threshold:4:0", "--word", "0000"],
    ["witness", "--lang", "exact:4:5", "--word", "1111"],
    ["witness", "--lang", "exact:0:0", "--word", ""],
    ["synth", "exact", "--n", "0", "--t", "0", "--out", "{out}"],
])
def test_cli_refuses_bad_count_targets(argv, tmp_path, capsys):
    argv = [a.format(out=tmp_path / "c.circ") for a in argv]
    assert run(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "c.circ").exists()


# ---------------------------------------------------------------------------
# cache hygiene


def test_unhashable_automaton_still_witnesses():
    parity = parse_dfa(PARITY_TXT)
    listed = Dfa(2, 0, frozenset({0}), [[0, 1], [1, 0]])
    with pytest.raises(TypeError):
        hash(listed)
    for word in ([1, 1, 0], [0, 0, 0, 0, 1, 1]):
        assert np.array_equal(witness_regular(listed, word), witness_regular(parity, word))


def test_equal_automata_share_one_entry():
    regular._unrolled.cache_clear()
    first, second = parse_dfa(MOD3_TXT), parse_dfa(MOD3_TXT)
    assert first is not second and first == second
    witness_regular(first, [1, 1, 1, 0])
    witness_regular(second, [0, 1, 1, 1])
    info = regular._unrolled.cache_info()
    assert (info.currsize, info.hits) == (1, 1)


def test_unroll_hands_out_a_fresh_bp():
    parity = parse_dfa(PARITY_TXT)
    cached = witness_regular(parity, [1, 0, 1])
    bp = unroll(parity, 3)
    assert bp is not unroll(parity, 3)
    bp.accept[:] = False
    bp.rel0[1][:] = False
    assert np.array_equal(witness_regular(parity, [1, 0, 1]), cached)
    with pytest.raises(regular.WitnessError):
        witness_bp(bp, [1, 0, 1])


def test_caches_stay_within_their_bounds():
    parity, mod3 = parse_dfa(PARITY_TXT), parse_dfa(MOD3_TXT)
    for n in range(1, 201):
        witness_regular(parity, [0] * n)
        witness_regular(mod3, [0] * n)
        witness_count("threshold", n, 1, [1] * n)
    for cache, bound in ((regular._unrolled, regular.UNROLL_CACHE),
                         (regular._plan, intervals.PLAN_CACHE),
                         (counting._plan, intervals.PLAN_CACHE)):
        info = cache.cache_info()
        assert info.maxsize == bound
        assert 0 < info.currsize <= bound


def test_cached_plans_are_read_only():
    plan, *label_arrays = regular._plan(5, 3)
    for a in (plan.lo, plan.hi, plan.parent, plan.right, plan.offset, plan.bits,
              plan.owner, plan.shift, *label_arrays):
        assert not a.flags.writeable
    assert not counting._plan(9).owner.flags.writeable


@pytest.mark.parametrize("text", [MOD3_TXT, NFA1_TXT], ids=["dfa", "nfa"])
def test_cached_gap_tables_are_immutable(text):
    """The cached tables are tuples of tuples and hold the reference's
    successors: twice the run table's entry for a DFA, the relation's row
    as a mask for an NFA."""
    automaton = parse_dfa(text)
    for n in (1, 2, 5):
        gaps = regular._unrolled(automaton, n)
        bp = unroll(automaton, n)
        succ = regular_reference._successors(bp)
        assert gaps.deterministic == (succ is not None)
        assert isinstance(gaps.steps, tuple) and len(gaps.steps) == n
        for g, step in enumerate(gaps.steps):
            assert isinstance(step, tuple)
            with pytest.raises(TypeError):
                step[0] = 1
            for b, rel in enumerate((bp.rel0[g], bp.rel1[g])):
                for p in range(len(rel)):
                    want = (2 * int(succ[b, g, p]) if succ is not None
                            else sum(1 << int(q) for q in np.flatnonzero(rel[p])))
                    assert step[2 * p + b] == want
        assert len(gaps.steps) < 3 or gaps.steps[1] is gaps.steps[-1]  # one shared row
