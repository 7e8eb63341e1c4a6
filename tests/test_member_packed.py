"""The packed membership oracle against the per-word ``member``.

``_member_packed`` decides automata, structured BPs, counting and graph
specs, and ``upclose`` over an enumerated inner slice, on bit-sliced words,
64 rows to a uint64, and takes one ``member`` call per distinct word for
every other spec; ``member_batch`` packs its rows and calls it.  Each case
draws a pool of words whose per-word answers are known, then checks both
entry points on batches of 0, 1, 63, 64, 65 and 16387 rows drawn from the
pool, with random bits past the last row.  The counting specs are also
checked against row sums, and the distinct words against the row-wise
``np.unique``.
"""

from functools import lru_cache

import numpy as np
import pytest

from rangesynth import languages
from rangesynth.circuit import CircuitBuilder, _distinct_rows, _pack_rows
from rangesynth.languages import (
    Combined, Dfa, ExactCount, Nfa, NpCoSac, NpPadded, NpSac, Regular, Threshold,
    UnReach, _member_packed, member, member_batch, parse_dfa, word_to_string,
)
from rangesynth.npsys import VerifierCircuit
from rangesynth.regular import LayeredBp, parse_bp
from tests.conftest import NFA1_TXT, PARITY_TXT, XX_BP
from tests.membership_reference import (
    automaton_member_batch, count_member_batch, distinct_member_batch, reached,
)
from tests.test_languages import GRAPHS, _directed_paths, _graph_words, _member_or_reject

ROWS = [0, 1, 63, 64, 65, 16387]


def _packed_with_garbage(rng, words) -> np.ndarray:
    """``_pack_rows(words)`` with random bits past the last row."""
    Q = _pack_rows(words)
    tail = len(words) % 64
    if tail:
        junk = np.frombuffer(rng.bytes(8 * len(Q)), dtype="<u8")
        Q[:, -1] |= junk & ~np.uint64((1 << tail) - 1)
    return Q


def _check(spec, pool, truth, rows, seed):
    """Both entry points on ``rows`` words drawn from ``pool``, whose
    per-word answers are ``truth``; returns the drawn words and answers."""
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, len(pool), rows)
    words, want = pool[pick], truth[pick]
    got = member_batch(spec, words)
    assert got.dtype == bool and got.shape == (rows,)
    assert np.array_equal(got, want)
    got = _member_packed(spec, _packed_with_garbage(rng, words), rows)
    assert got.dtype == bool and got.shape == (rows,)
    assert np.array_equal(got, want)
    return words, want


def _word_pool(rng, n, size=512):
    """Every length-n word when there are at most ``size``, else a sample."""
    if 1 << n <= size:
        return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)
    return rng.integers(0, 2, (size, n), dtype=np.uint8)


# ---------------------------------------------------------------------------
# automata and structured BPs


def _random_automaton(rng, nondeterministic: bool):
    w = int(rng.integers(1, 5))
    start = int(rng.integers(0, w))
    finals = frozenset(np.flatnonzero(rng.random(w) < 0.5).tolist())
    if not nondeterministic:
        delta = tuple(tuple(int(q) for q in rng.integers(0, w, 2)) for _ in range(w))
        return Dfa(w, start, finals, delta)
    # sparse successor sets, so that empty transitions are common
    delta = tuple(
        tuple(frozenset(np.flatnonzero(rng.random(w) < 0.3).tolist()) for _ in range(2))
        for _ in range(w)
    )
    return Nfa(w, start, finals, delta)


AUTOMATA = [(_random_automaton(np.random.default_rng(s), s % 2 == 1), n)
            for s in range(12) for n in (0, 1, 3, 6, 11)]


@pytest.mark.parametrize("rows", ROWS)
def test_automata(rows):
    rng = np.random.default_rng(rows)
    for k, (a, n) in enumerate(AUTOMATA):
        spec = Regular(a)
        pool = _word_pool(rng, n)
        truth = np.array([bool(member(spec, w)) for w in pool])
        words, want = _check(spec, pool, truth, rows, seed=k)
        assert np.array_equal(automaton_member_batch(a, words), want)


def test_automata_include_empty_transitions():
    nfas = [a for a, _ in AUTOMATA if isinstance(a, Nfa)]
    assert any(not s for a in nfas for row in a.delta for s in row)
    assert any(len(s) > 1 for a in nfas for row in a.delta for s in row)


@pytest.mark.parametrize("rows", ROWS)
def test_parsed_nfa(rows):
    spec = Regular(parse_dfa(NFA1_TXT))
    pool = _word_pool(np.random.default_rng(0), 7)
    _check(spec, pool, np.array([bool(member(spec, w)) for w in pool]), rows, seed=1)


def _random_bp(rng, n, width) -> LayeredBp:
    shapes = [(1, width)] + [(width, width)] * (n - 1)
    return LayeredBp(
        n=n, width=width, gap_var=tuple(int(v) + 1 for v in rng.permutation(n)),
        rel0=[rng.random(s) < 0.5 for s in shapes],
        rel1=[rng.random(s) < 0.5 for s in shapes],
        accept=rng.random(width) < 0.5,
    )


BPS = [parse_bp(XX_BP)] + [_random_bp(np.random.default_rng(s), n, w)
                           for s, (n, w) in enumerate([(1, 1), (2, 2), (6, 3), (9, 4)])]


@pytest.mark.parametrize("rows", ROWS)
def test_structured_bps(rows):
    rng = np.random.default_rng(rows)
    for k, bp in enumerate(BPS):
        spec = Regular(bp)
        for n in (bp.n, bp.n + 1):  # a word of any other length is no member
            pool = _word_pool(rng, n)
            truth = np.array([bool(member(spec, w)) for w in pool])
            _check(spec, pool, truth, rows, seed=k)
            assert n == bp.n or not truth.any()


def test_bp_gap_variables_are_permuted():
    assert all(list(bp.gap_var) != sorted(bp.gap_var) for bp in BPS if bp.n > 2)


def test_structured_bp_takes_the_walk(monkeypatch):
    def no_member(spec, word):
        raise AssertionError("per-word member called")

    spec = Regular(parse_bp(XX_BP))
    words = _word_pool(np.random.default_rng(0), 4)
    want = [bool(member(spec, w)) for w in words]
    monkeypatch.setattr(languages, "member", no_member)
    assert member_batch(spec, words).tolist() == want


# ---------------------------------------------------------------------------
# graphs


@lru_cache(maxsize=None)
def _graph_pool(v):
    """Random v-vertex words (directed, undirected, with a diagonal bit, with
    a one-way edge, with two one-way edges out of one vertex, which keep
    every degree's parity) and full-diameter paths, whole and cut, both ways."""
    rng = np.random.default_rng(100 + v)
    parts = [_graph_words(rng, v, 400)]
    if v > 2:
        pairs = parts[0][-100:].reshape(-1, v, v).copy()  # undirected words
        i = rng.integers(0, v, len(pairs))
        j = (i + rng.integers(1, v, len(pairs))) % v
        k = (j + rng.integers(1, v - 1, len(pairs))) % v
        k = np.where(k == i, (k + 1) % v, k)
        pairs[np.arange(len(pairs)), i, j] ^= 1
        pairs[np.arange(len(pairs)), i, k] ^= 1
        parts.append(pairs)
    if v > 1:
        paths = _directed_paths(rng, v, 30)
        cut = paths.copy()
        for m in cut:
            i, j = np.argwhere(m)[rng.integers(0, v - 1)]
            m[i, j] = 0
        both = np.concatenate([paths, cut])
        parts += [both, both | both.transpose(0, 2, 1)]
    pool = np.concatenate([p.reshape(-1, v * v) for p in parts])
    return pool, {type(s): np.array([_member_or_reject(s, w) for w in pool])
                  for s in GRAPHS}


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("v", [1, 2, 3, 4, 5, 6, 7, 8, 20, 40])
def test_graph_specs(v, rows):
    pool, truth = _graph_pool(v)
    for spec in GRAPHS:
        _check(spec, pool, truth[type(spec)], rows, seed=v)


@pytest.mark.parametrize("v", [2, 8, 20, 40])
def test_reach_matches_matmul_reference(v):
    pool, truth = _graph_pool(v)
    t_reached = reached(pool.reshape(-1, v, v))[:, -1]
    assert np.array_equal(truth[UnReach], ~t_reached)
    assert truth[UnReach].any() and not truth[UnReach].all()


@pytest.mark.parametrize("v", [3, 8, 20])
def test_graph_pool_covers_malformed_encodings(v):
    pool, _ = _graph_pool(v)
    mats = pool.reshape(-1, v, v)
    asym = (mats != mats.transpose(0, 2, 1)).any(axis=(1, 2))
    diag = mats[:, np.arange(v), np.arange(v)].any(axis=1)
    even = ~(mats.sum(axis=2) % 2).any(axis=1)
    assert (asym & ~diag & even).any()  # one-way edges that keep degrees even
    assert (diag & ~asym).any()


# ---------------------------------------------------------------------------
# counting specs


def _packed_with_ones(words) -> np.ndarray:
    """``_pack_rows(words)`` with every bit past the last row set, in the
    last word and in one extra word."""
    Q = _pack_rows(words)
    tail = len(words) % 64
    if tail:
        Q[:, -1] |= ~np.uint64((1 << tail) - 1)
    return np.concatenate([Q, np.full((len(Q), 1), 2**64 - 1, dtype=np.uint64)], axis=1)


@lru_cache(maxsize=None)
def _count_words(n, rows):
    """Rows whose densities spread the counts over 0..n, with all-zero and
    all-one rows among them."""
    rng = np.random.default_rng(1000 * n + rows)
    words = (rng.random((rows, n)) < rng.random((rows, 1))).astype(np.uint8)
    words[:1], words[1:2] = 0, 1
    return words


@pytest.mark.parametrize("rows", [0, 1, 63, 64, 65, 17408])
@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 130])
def test_counting_specs(n, rows):
    words = _count_words(n, rows)
    Q = _packed_with_ones(words)
    for t in range(-1, n + 3):
        for spec in (Threshold(t), ExactCount(t)):
            want = count_member_batch(spec, words)
            got = _member_packed(spec, Q, rows)
            assert got.dtype == bool and got.shape == (rows,)
            assert np.array_equal(got, want), (spec, n, rows)
            assert np.array_equal(member_batch(spec, words), want)
            if rows <= 65:
                assert want.tolist() == [bool(member(spec, w)) for w in words]


def test_count_words_spread_over_every_count():
    words = _count_words(130, 17408)
    assert set(words.sum(axis=1).tolist()) == set(range(131))


def test_counting_takes_no_member_call(monkeypatch):
    def no_member(spec, word):
        raise AssertionError("per-word member called")

    words = _count_words(65, 200)
    want = count_member_batch(Threshold(30), words)
    monkeypatch.setattr(languages, "member", no_member)
    assert np.array_equal(member_batch(Threshold(30), words), want)


# ---------------------------------------------------------------------------
# upclose: one enumeration of the inner slice per call


@lru_cache(maxsize=None)
def _upclose_cases(n):
    """A pool of length-n words and ``(spec, truth)`` per upclose spec: over
    slices with and without the all-zero word, and over an empty one."""
    rng = np.random.default_rng(n)
    pool = _word_pool(rng, n)
    if n > 9:  # every density, so that both answers occur
        pool = (rng.random((128, n)) < rng.random((128, 1))).astype(np.uint8)
    odd = Dfa(2, 0, frozenset({1}), ((0, 1), (1, 0)))
    inner = [ExactCount(2), ExactCount(n // 2), Threshold(n - 1), Regular(odd),
             Regular(parse_dfa(NFA1_TXT)), ExactCount(n + 1), Threshold(0)]
    specs = [Combined("upclose", (spec,)) for spec in inner]
    return pool, [(spec, np.array([bool(member(spec, w)) for w in pool]))
                  for spec in specs]


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("n", [0, 1, 5, 9, 14])
def test_upclose(n, rows, monkeypatch):
    pool, cases = _upclose_cases(n)
    enumerate_slice = languages.enumerate_slice
    enumerated = []

    def counting_enumerate(spec, n, budget=1 << 24):
        enumerated.append(spec)
        return enumerate_slice(spec, n, budget)

    def no_member(spec, word):
        raise AssertionError("per-word member called")

    monkeypatch.setattr(languages, "enumerate_slice", counting_enumerate)
    monkeypatch.setattr(languages, "member", no_member)
    for k, (spec, truth) in enumerate(cases):
        enumerated.clear()
        languages._upclose_decider.cache_clear()
        _check(spec, pool, truth, rows, seed=k)
        # member_batch and _member_packed share one decider per (inner, n)
        assert enumerated == [spec.specs[0]]


def test_upclose_unhashable_inner_is_decided_uncached(monkeypatch):
    """An inner automaton with list fields has no cache key: each call
    enumerates its slice again and decides as the hashable one does."""
    listed = Combined("upclose", (Regular(Dfa(2, 0, frozenset({1}), [[0, 1], [1, 0]])),))
    hashed = Combined("upclose", (Regular(Dfa(2, 0, frozenset({1}), ((0, 1), (1, 0)))),))
    words = _word_pool(np.random.default_rng(0), 6)
    want = member_batch(hashed, words)
    assert 0 < want.sum() < len(words)
    calls = []
    enumerate_slice = languages.enumerate_slice
    monkeypatch.setattr(languages, "enumerate_slice",
                        lambda *args: calls.append(args) or enumerate_slice(*args))
    for _ in range(2):
        assert np.array_equal(member_batch(listed, words), want)
    assert len(calls) == 2


@pytest.mark.parametrize("n", [5, 9, 14])
def test_upclose_pools_have_members_and_non_members(n):
    _, cases = _upclose_cases(n)
    for spec, truth in cases[:5]:  # the last two accept no word and every word
        assert 0 < truth.sum() < len(truth), spec
    assert not cases[5][1].any() and cases[6][1].all()


def _random_inner(rng, n):
    """A threshold, exact count or random 1-4 state DFA spec for length n."""
    pick = rng.integers(3)
    if pick < 2:
        return (Threshold, ExactCount)[pick](int(rng.integers(0, n + 2)))
    w = int(rng.integers(1, 5))
    delta = tuple(tuple(int(q) for q in rng.integers(0, w, 2)) for _ in range(w))
    finals = frozenset(np.flatnonzero(rng.random(w) < 0.5).tolist())
    return Regular(Dfa(w, 0, finals, delta))


@pytest.mark.parametrize("seed", range(12))
def test_minimal_members(seed):
    """The members no other member lies below, against all pairs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 11))
    words = (rng.random((int(rng.integers(2, 200)), n)) < rng.random()).astype(np.uint8)
    words[0] = 1  # at least one member
    members = words[words.any(axis=1)]
    members = members[np.sort(np.unique(members, axis=0, return_index=True)[1])]
    below = (members[:, None, :] <= members[None, :, :]).all(axis=2)  # [j, i]: j below i
    np.fill_diagonal(below, False)
    want = members[~below.any(axis=0)]
    assert np.array_equal(languages._minimal(members), want)


@pytest.mark.parametrize("seed", range(16))
def test_upclose_random_inner(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    spec = Combined("upclose", (_random_inner(rng, n),))
    pool = (rng.random((256, n)) < rng.random((256, 1))).astype(np.uint8)
    truth = np.array([bool(member(spec, w)) for w in pool])
    _check(spec, pool, truth, 256, seed)


def test_upclose_reads_minimal_members_only():
    """upclose(Th_t) gathers its C(n, t) minimal words, not all members."""
    for t, n, minimal in [(1, 16, 16), (2, 12, 66), (3, 9, 84)]:
        _, temp_rows = languages._packed_decider(Combined("upclose", (Threshold(t),)), n)
        assert temp_rows == minimal * (t + 1)


def test_upclose_gathers_a_sparse_slice_as_it_is(monkeypatch):
    """upclose(Th_{n-1}) at n = 20 has 21 members, too few for the 2^20-word
    table: all 21 are gathered, at 19 or 20 rows each plus a segment start."""
    def no_table(members):
        raise AssertionError("_minimal called")

    monkeypatch.setattr(languages, "_minimal", no_table)
    _, temp_rows = languages._packed_decider(Combined("upclose", (Threshold(19),)), 20)
    assert temp_rows == 20 * 19 + 20 + 21


# ---------------------------------------------------------------------------
# NP and combinator specs: one member call per distinct word


def _pair_verifier(num_x: int) -> VerifierCircuit:
    """x is in L when its first two or its last two bits are both set; the
    one certificate bit says which pair."""
    b = CircuitBuilder(num_x + 1)
    x, y = [b.input(i) for i in range(num_x)], b.input(num_x)
    b.set_outputs([b.or_(b.and_(y, b.and_(x[0], x[1])),
                         b.and_(b.not_(y), b.and_(x[-2], x[-1])))])
    return VerifierCircuit(b.build(), num_x=num_x, num_y=1)


def _keyed_pool(n):
    """Up to 40 distinct length-n words, all zeros and all ones among them,
    and a finite set holding every third one."""
    rng = np.random.default_rng(n)
    pool = np.unique(np.concatenate([
        np.zeros((1, n), dtype=np.uint8), np.ones((1, n), dtype=np.uint8),
        (rng.random((38, n)) < rng.random((38, 1))).astype(np.uint8),
    ]), axis=0)
    return pool, tuple(word_to_string(w) for w in pool[::3])


def _keyed_specs(n):
    pool, chosen = _keyed_pool(n)
    finite = Combined("finite", (), (chosen,))
    specs = [finite, Combined("union", (finite, Threshold(n // 2 + 1))),
             Combined("union", (Regular(parse_dfa(PARITY_TXT)), finite))]
    if n == 6:
        specs += [NpPadded(_pair_verifier(4)), NpCoSac(_pair_verifier(6)),
                  NpSac(_pair_verifier(6))]
    return pool, specs


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("n", [0, 6, 64, 65, 130])
def test_keyed_specs(n, rows, monkeypatch):
    pool, specs = _keyed_specs(n)
    real_member = languages.member
    for k, spec in enumerate(specs):
        truth = np.array([bool(member(spec, w)) for w in pool])
        rng = np.random.default_rng(k)
        pick = rng.integers(0, len(pool), rows)
        words, want = pool[pick], truth[pick]
        assert np.array_equal(distinct_member_batch(spec, words), want)
        calls = []

        def counting_member(spec, word):
            calls.append(spec)
            return real_member(spec, word)

        monkeypatch.setattr(languages, "member", counting_member)
        for decide in (lambda: member_batch(spec, words),
                       lambda: _member_packed(spec, _packed_with_garbage(rng, words), rows),
                       lambda: _member_packed(spec, _packed_with_ones(words), rows)):
            calls.clear()
            got = decide()
            assert got.dtype == bool and np.array_equal(got, want)
            # the pool's words are distinct, so its distinct picks are the distinct words
            assert len([c for c in calls if c is spec]) == len(np.unique(pick))
        monkeypatch.undo()


def test_keyed_pools_have_members_and_non_members():
    for n in (6, 64, 65, 130):
        pool, specs = _keyed_specs(n)
        for spec in specs:
            truth = [member(spec, w) for w in pool]
            assert 0 < sum(truth) < len(pool), (n, spec)


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("n", [0, 6, 64, 65, 130])
def test_distinct_rows_match_row_unique(n, rows):
    pool, _ = _keyed_pool(n)
    rng = np.random.default_rng(rows)
    words = pool[rng.integers(0, len(pool), rows)]
    distinct, inverse = _distinct_rows(_packed_with_ones(words), rows)
    assert distinct.dtype == np.uint8 and distinct.shape[1] == n
    assert np.array_equal(distinct[inverse], words)
    want = np.unique(words, axis=0)
    assert len(distinct) == len(want)
    assert {w.tobytes() for w in distinct} == {w.tobytes() for w in want}
