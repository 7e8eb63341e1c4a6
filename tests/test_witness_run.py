"""Witnesses as Python-int walks: deterministic BPs run forward only, and any
other takes one backward pass of reach masks and a lowest-bit walk.
Differential tests against the numpy run table and reach products they
replace (``tests/regular_reference.py``'s ``witness_walk``) and against the
per-word reference generator, the BPs that walk, and words of the wrong
shape."""

import itertools
import re

import numpy as np
import pytest

from rangesynth import regular
from rangesynth.languages import Dfa, Nfa, parse_dfa
from rangesynth.regular import (LayeredBp, WitnessError, parse_bp, unroll, witness_bp,
                                witness_regular)
from tests import regular_reference as rref
from tests import witness_reference as ref
from tests.conftest import MOD3_TXT, PARITY_TXT, TH2_TXT
from tests.test_regular import _bp_text, _random_bp
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
    """The reference walk's proof for ``word``, on any BP."""
    return rref.witness_walk(bp, word, run=False)


# ---------------------------------------------------------------------------
# differential: the run against the walk and the reference


def test_random_dfas_run_like_the_walk_and_the_reference():
    rng = np.random.default_rng(13)
    for _ in range(30):
        dfa = _random_dfa(rng)
        for n in list(range(1, 14)) + [64]:
            bp = unroll(dfa, n)
            assert regular._unrolled(dfa, n).deterministic
            assert rref._successors(bp) is not None
            for word in _words(rng, n):
                got = _outcome(witness_regular, dfa, word)
                assert got == _outcome(_walked, bp, word) == _outcome(ref.witness_bp, bp, word)
                assert isinstance(got, bytes) == dfa.accepts(word)


def test_permuted_structured_dfas_run_like_the_walk_and_the_reference():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n, w = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        bp = _random_structured_dfa(rng, n, w)
        assert rref._successors(bp) is not None
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
        assert regular._unrolled(nfa, n).deterministic
        assert rref._successors(unroll(nfa, n)) is not None
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
    monkeypatch.setattr(regular, "_reach", refuse)
    monkeypatch.setattr(regular, "_lowest_path", refuse)
    bp = unroll(dfa, 9)
    assert rref._successors(bp) is not None
    assert witness_regular(dfa, member).tobytes() == rref.witness_walk(bp, member).tobytes()
    assert witness_bp(bp, member).tobytes() == rref.witness_walk(bp, member).tobytes()
    with pytest.raises(WitnessError):
        witness_regular(dfa, other)
    with pytest.raises(WitnessError):
        witness_bp(bp, other)


# ---------------------------------------------------------------------------
# BPs with a row of zero or several successors walk


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


def _count_calls(monkeypatch, name) -> list:
    """The argument tuples of each call of ``regular.<name>``, which still runs."""
    calls, real = [], getattr(regular, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(regular, name, counting)
    return calls


@pytest.mark.parametrize("make", [_dead_row, _dead_and_double, _several_in(0),
                                  _several_in(3)],
                         ids=["dead-row", "dead-and-double", "gap-1", "last-gap"])
def test_nondeterministic_bps_keep_the_walk(make, monkeypatch):
    bp = make()
    assert rref._successors(bp) is None
    walks, reaches = (_count_calls(monkeypatch, name) for name in ("_lowest_path", "_reach"))
    members = 0
    for word in itertools.product((0, 1), repeat=bp.n):
        got = _outcome(witness_bp, bp, word)
        assert got == _outcome(_walked, bp, word) == _outcome(ref.witness_bp, bp, word)
        members += isinstance(got, bytes)
    assert len(walks) == members > 0
    assert len(reaches) == 1 << bp.n


def test_nfa_keeps_the_walk(nfa1, monkeypatch):
    walks = _count_calls(monkeypatch, "_lowest_path")
    members = 0
    for n in (1, 2, 5, 8):
        bp = unroll(nfa1, n)
        assert rref._successors(bp) is None
        assert not regular._unrolled(nfa1, n).deterministic
        for word in itertools.product((0, 1), repeat=n):
            got = _outcome(witness_regular, nfa1, word)
            assert got == _outcome(_walked, bp, word) == _outcome(ref.witness_bp, bp, word)
            assert got == _outcome(witness_bp, bp, word)
            members += 2 * isinstance(got, bytes)
    assert len(walks) == members > 0


# ---------------------------------------------------------------------------
# differential: the mask walk against the per-word reference


def _random_nfa(rng, w):
    """A random NFA on w states whose rows are often empty (dead)."""
    def row():
        if rng.random() < 0.3:
            return frozenset()
        return frozenset(np.flatnonzero(rng.random(w) < 0.4).tolist())
    finals = frozenset(np.flatnonzero(rng.random(w) < 0.4).tolist())
    return Nfa(w, int(rng.integers(0, w)), finals,
               tuple((row(), row()) for _ in range(w)))


def _members_and_not(rng, automaton, n, count):
    """Up to ``count`` members and ``count`` other words of length n, from
    every word up to n = 6, else from 64 random ones."""
    words = _words(rng, n, 64)
    members = [w for w in words if automaton.accepts(w)]
    return members[:count] + [w for w in words if not automaton.accepts(w)][:count]


def _same_as_reference(fn, bp, words, *args):
    for word in words:
        got = _outcome(fn, *args, word)
        assert got == _outcome(ref.witness_bp, bp, word)
        if not isinstance(got, bytes):
            assert got[0] == "WitnessError"
        assert isinstance(got, bytes) == bp.accepts(word)


def test_random_automata_walk_like_the_reference():
    rng = np.random.default_rng(29)
    members = 0
    for trial in range(60):
        w = int(rng.integers(1, 7))
        automaton = _random_dfa(rng) if trial % 2 else _random_nfa(rng, w)
        for n in range(1, 17):
            bp = unroll(automaton, n)
            words = _members_and_not(rng, automaton, n, 4)
            _same_as_reference(witness_regular, bp, words, automaton)
            _same_as_reference(witness_bp, bp, words[::2], bp)
            members += sum(map(automaton.accepts, words))
    assert members > 1000


def test_wide_nfa_walks_past_one_machine_word():
    """Width 70: the successor masks need two 64-bit words."""
    w = 70
    # state p moves to p + 1 on either bit and also to p + 65 on a 1; only
    # states 64 and up accept, so members need a 1 read early enough
    delta = tuple((frozenset({(p + 1) % w}), frozenset({(p + 1) % w, (p + 65) % w}))
                  for p in range(w))
    nfa = Nfa(w, 0, frozenset(range(64, w)), delta)
    rng = np.random.default_rng(70)
    for n in (1, 3, 8):
        bp = unroll(nfa, n)
        assert rref._successors(bp) is None
        words = _members_and_not(rng, nfa, n, 3)
        assert any(nfa.accepts(word) for word in words)
        _same_as_reference(witness_regular, bp, words, nfa)
        _same_as_reference(witness_bp, bp, words, bp)
        _same_as_reference(rref.witness_walk, bp, words, bp)


@pytest.mark.parametrize("shared", [False, True], ids=["per-gap", "shared"])
def test_parsed_bps_walk_like_the_reference(shared):
    """Random variable orders and relations that differ gap by gap."""
    for i in range(30):
        bp = _random_bp(np.random.default_rng(100 + i), shared)
        words = list(itertools.product((0, 1), repeat=bp.n))
        _same_as_reference(witness_bp, bp, words, bp)


@pytest.mark.parametrize("n", [256, 1024])
def test_long_parity_runs_like_the_reference(parity, n):
    rng = np.random.default_rng(n)
    words = rng.integers(0, 2, (6, n), dtype=np.uint8)
    words[:3, 0] ^= words[:3].sum(axis=1) % 2  # three members
    words[3:, 0] ^= 1 - words[3:].sum(axis=1) % 2  # three others
    _same_as_reference(witness_regular, unroll(parity, n), words, parity)


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
