"""Composed label tables against the gap walk, key by key.

``regular._Engine`` builds every entry's feasibility, patch words and
nontrivial positions from its two children's; ``tests/regular_reference.py``
keeps the gap walk it replaced (``tables_reference``).  Up to n = 64 every
plan node's tables are walked on their own; above that (unrollings only)
each entry is walked once, at its first node, and every node's entry must
share its length and boundary flags.
"""

import numpy as np
import pytest

from rangesynth.languages import Dfa, Nfa, parse_dfa
from rangesynth.regular import LayeredBp, _Engine, parse_bp, unroll
from tests.conftest import MOD3_TXT, NFA1_TXT, PARITY_TXT, TH2_TXT, XX_BP
from tests.regular_reference import tables_reference
from tests.test_lowering import MOD16_TXT

EVERY_NODE = 64  # walk every node up to this n


def _assert_same(got, want, where):
    (feas, words, nontrivial), (ref_feas, ref_words, ref_nontrivial) = got, want
    assert np.array_equal(feas, ref_feas), where
    assert words.dtype == ref_words.dtype and np.array_equal(words, ref_words), where
    assert nontrivial == ref_nontrivial, where


def _check(bp):
    eng = _Engine(bp)
    lo, hi, key = eng.plan.lo.tolist(), eng.plan.hi.tolist(), eng.key.tolist()
    if bp.n <= EVERY_NODE:
        for u, (a, b) in enumerate(zip(lo, hi)):
            _assert_same(eng.entries[key[u]], tables_reference(bp, a, b), (a, b))
        return
    for j, u in enumerate(eng.first.tolist()):
        _assert_same(eng.entries[j], tables_reference(bp, lo[u], hi[u]), (lo[u], hi[u]))
    for u, (a, b) in enumerate(zip(lo, hi)):  # an unrolling: entries by length and boundary
        first = eng.first[key[u]]
        assert (b - a, a == 0, b == bp.n + 1) == (
            hi[first] - lo[first], lo[first] == 0, hi[first] == bp.n + 1)


AUTOMATA = {"parity": PARITY_TXT, "th2": TH2_TXT, "nfa1": NFA1_TXT, "mod3": MOD3_TXT,
            "mod16": MOD16_TXT}
FAMILY_CASES = [(name, n) for name in AUTOMATA for n in (1, 2, 3, 5, 6, 8, 13, 64)]


@pytest.mark.parametrize("name, n", FAMILY_CASES, ids=[f"{a}-{n}" for a, n in FAMILY_CASES])
def test_family_automata(name, n):
    _check(unroll(parse_dfa(AUTOMATA[name]), n))


def test_structured_bp():
    _check(parse_bp(XX_BP))


@pytest.mark.parametrize("name", ["parity", "mod3"])
@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_large_unrollings(name, n):
    _check(unroll(parse_dfa(AUTOMATA[name]), n))


def _random_automaton(rng):
    """A DFA or NFA of one to four states; a DFA may route into a dead
    (non-accepting, self-looping) state, and NFA states may lack successors."""
    w = int(rng.integers(1, 5))
    finals = frozenset(np.flatnonzero(rng.random(w) < 0.5).tolist())
    if rng.random() < 0.5:
        delta = [tuple(int(q) for q in rng.integers(0, w, 2)) for _ in range(w)]
        if w > 1 and rng.random() < 0.5:
            delta[-1] = (w - 1, w - 1)
            finals -= {w - 1}
        return Dfa(w, int(rng.integers(0, w)), finals, tuple(delta))
    return Nfa(w, int(rng.integers(0, w)), finals, tuple(
        tuple(frozenset(np.flatnonzero(rng.random(w) < 0.4).tolist()) for _ in range(2))
        for _ in range(w)))


@pytest.mark.parametrize("seed", range(4))
def test_random_automata(seed):
    rng = np.random.default_rng(seed)
    for _ in range(12):
        automaton = _random_automaton(rng)
        for n in range(1, 17):
            _check(unroll(automaton, n))


def test_permuted_variables():
    for n in (2, 5, 9, 33):
        bp = unroll(parse_dfa(TH2_TXT), n)
        bp.gap_var = tuple(np.random.default_rng(n).permutation(n) + 1)
        _check(bp)


@pytest.mark.parametrize("n", [2, 3, 4, 9, 64])
def test_one_differing_gap(n):
    bp = unroll(parse_dfa(PARITY_TXT), n)
    g = min(2, n - 1)
    bp.rel1[g] = np.roll(bp.rel1[g], 1, axis=1)
    _check(bp)


def _random_bp(rng, n: int) -> LayeredBp:
    """Independent random relations at every gap, dead rows included."""
    w = int(rng.integers(1, 5))
    dens = rng.uniform(0.2, 0.8)
    shapes = [(1, w)] + [(w, w)] * (n - 1)
    return LayeredBp(n=n, width=w, gap_var=tuple(rng.permutation(n) + 1),
                     rel0=[rng.random(s) < dens for s in shapes],
                     rel1=[rng.random(s) < dens for s in shapes],
                     accept=rng.random(w) < 0.5)


@pytest.mark.parametrize("seed", range(4))
def test_random_per_gap_relations(seed):
    rng = np.random.default_rng(seed)
    for n in list(range(1, 17)) + [23, 40, 64]:
        _check(_random_bp(rng, n))
