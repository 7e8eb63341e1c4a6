"""Deterministic BPs witness by their run: differential tests of the run
against the backward-reach walk it replaces and against the reference
generator, the BPs that keep the walk, and words of the wrong shape."""

import itertools
import re

import numpy as np
import pytest

from rangesynth import regular
from rangesynth.circuit import _as_bits
from rangesynth.languages import Dfa, Nfa, parse_dfa
from rangesynth.regular import (LayeredBp, WitnessError, parse_bp, unroll, witness_bp,
                                witness_regular)
from tests import witness_reference as ref
from tests.conftest import MOD3_TXT, PARITY_TXT, TH2_TXT
from tests.test_regular import _bp_text
from tests.test_witness_plan import _outcome


def _words(rng, n, count=24):
    """Every word of length n up to n = 6, else ``count`` random ones."""
    if n <= 6:
        return [list(w) for w in itertools.product((0, 1), repeat=n)]
    return list(rng.integers(0, 2, (count, n), dtype=np.uint8))


def _random_dfa(rng):
    """A random DFA with 1-6 states; about one in five has no final state,
    so its every slice is empty."""
    w = int(rng.integers(1, 7))
    finals = frozenset(np.flatnonzero(rng.random(w) < 0.4).tolist())
    if rng.random() < 0.2:
        finals = frozenset()
    delta = tuple(tuple(int(q) for q in rng.integers(0, w, 2)) for _ in range(w))
    return Dfa(w, int(rng.integers(0, w)), finals, delta)


def _random_structured_dfa(rng, n, w):
    """A structured BP with one edge per (row, bit) and a random variable
    order; its accepting states are random, possibly none reachable."""
    edges = [[(p, a, int(rng.integers(0, w))) for p in range(1 if g == 0 else w)
              for a in (0, 1)] for g in range(n)]
    order = (rng.permutation(n) + 1).tolist()
    finals = sorted(set(rng.integers(0, w, int(rng.integers(1, w + 1))).tolist()))
    return parse_bp(_bp_text(n, w, finals, order, edges))


def _walked(bp, word):
    """The walk's proof for ``word``, on any BP."""
    return regular._witness(bp, None, _as_bits(word, (bp.n,), "word", WitnessError))


# ---------------------------------------------------------------------------
# differential: the run against the walk and the reference


def test_random_dfas_run_like_the_walk_and_the_reference():
    rng = np.random.default_rng(13)
    for _ in range(30):
        dfa = _random_dfa(rng)
        for n in list(range(1, 14)) + [64]:
            bp = unroll(dfa, n)
            assert regular._unrolled(dfa, n)[1] is not None
            for word in _words(rng, n):
                got = _outcome(witness_regular, dfa, word)
                assert got == _outcome(_walked, bp, word) == _outcome(ref.witness_bp, bp, word)
                assert isinstance(got, bytes) == dfa.accepts(word)


def test_permuted_structured_dfas_run_like_the_walk_and_the_reference():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n, w = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        bp = _random_structured_dfa(rng, n, w)
        assert regular._successors(bp) is not None
        for word in itertools.product((0, 1), repeat=n):
            got = _outcome(witness_bp, bp, word)
            assert got == _outcome(_walked, bp, word) == _outcome(ref.witness_bp, bp, word)
            assert isinstance(got, bytes) == bp.accepts(word)


def test_singleton_nfa_runs_like_its_dfa():
    delta = ((1, 0), (2, 2), (0, 1))
    dfa = Dfa(3, 0, frozenset({2}), delta)
    nfa = Nfa(3, 0, frozenset({2}), tuple(tuple(frozenset({q}) for q in row)
                                          for row in delta))
    for n in (1, 2, 5, 8):
        assert regular._unrolled(nfa, n)[1] is not None
        for word in itertools.product((0, 1), repeat=n):
            got = _outcome(witness_regular, nfa, word)
            assert got == _outcome(witness_regular, dfa, word)
            assert got == _outcome(_walked, unroll(nfa, n), word)


@pytest.mark.parametrize("text", [PARITY_TXT, MOD3_TXT, TH2_TXT])
def test_deterministic_bps_build_no_reach_products(text, monkeypatch):
    dfa = parse_dfa(text)

    def refuse(*args):
        raise AssertionError("a deterministic BP walked")

    words = list(itertools.product((0, 1), repeat=9))
    member = next(w for w in words if dfa.accepts(w))
    other = next(w for w in words if not dfa.accepts(w))
    monkeypatch.setattr(regular, "_back", refuse)
    monkeypatch.setattr(regular, "_walk", refuse)
    witness_regular(dfa, member)
    witness_bp(unroll(dfa, 9), member)
    with pytest.raises(WitnessError):
        witness_regular(dfa, other)


# ---------------------------------------------------------------------------
# BPs with a row of zero or several successors keep the walk


def _deterministic_bp(n):
    """Parity as a BP: gap g's row p goes to p xor the bit."""
    eye = np.eye(2, dtype=bool)
    return LayeredBp(n=n, width=2, gap_var=tuple(range(1, n + 1)),
                     rel0=[eye[:1]] + [eye.copy() for _ in range(n - 1)],
                     rel1=[eye[:1, ::-1]] + [eye[:, ::-1].copy() for _ in range(n - 1)],
                     accept=np.array([True, False]))


def _dead_row():
    bp = _deterministic_bp(4)
    bp.rel0[2][1] = False  # state 1 has no 0-successor at gap 3
    return bp


def _dead_and_double():
    bp = _dead_row()
    bp.rel0[2][0] = True  # ... and state 0 both, so the edge count still fits
    return bp


def _several_in(gap):
    def make():
        bp = _deterministic_bp(4)
        bp.rel1[gap][0] = True  # state 0 has both 1-successors
        return bp
    return make


@pytest.mark.parametrize("make", [_dead_row, _dead_and_double, _several_in(0),
                                  _several_in(3)],
                         ids=["dead-row", "dead-and-double", "gap-1", "last-gap"])
def test_nondeterministic_bps_keep_the_walk(make, monkeypatch):
    bp = make()
    assert regular._successors(bp) is None
    walks = []
    real_walk = regular._walk

    def counting_walk(*args):
        walks.append(args)
        return real_walk(*args)

    monkeypatch.setattr(regular, "_walk", counting_walk)
    members = 0
    for word in itertools.product((0, 1), repeat=bp.n):
        got = _outcome(witness_bp, bp, word)
        assert got == _outcome(ref.witness_bp, bp, word)
        members += isinstance(got, bytes)
    assert len(walks) == members > 0


def test_nfa_keeps_the_walk(nfa1):
    for n in (1, 2, 5, 8):
        bp = unroll(nfa1, n)
        assert regular._successors(bp) is None
        assert regular._unrolled(nfa1, n)[1] is None
        for word in itertools.product((0, 1), repeat=n):
            got = _outcome(witness_regular, nfa1, word)
            assert got == _outcome(ref.witness_bp, bp, word) == _outcome(witness_bp, bp, word)


# ---------------------------------------------------------------------------
# words that are not one-dimensional


@pytest.mark.parametrize("word", [[[0, 0]], [[0]], [[0], [0]], 0],
                         ids=["row", "one-by-one", "column", "scalar"])
@pytest.mark.parametrize("fixture", ["parity", "nfa1"], ids=["run", "walk"])
def test_wrong_shape_words_are_refused(fixture, word, request):
    automaton = request.getfixturevalue(fixture)
    refusal = re.escape(f"word must be one-dimensional, got shape {np.shape(word)}")
    with pytest.raises(WitnessError, match=refusal):
        witness_regular(automaton, word)
    with pytest.raises(WitnessError, match=refusal):
        witness_bp(unroll(automaton, 2), word)
