"""Language specs: parsing, membership oracles, slice enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangesynth import circuit, languages
from rangesynth.circuit import InputArityError, InputBitError
from rangesynth.languages import (
    BudgetError,
    Combined,
    Cycles,
    Dfa,
    EncodingError,
    ExactCount,
    LanguageError,
    Nfa,
    NpCoSac,
    NpPadded,
    NpSac,
    Regular,
    Threshold,
    UnReach,
    USTConn,
    enumerate_slice,
    member,
    member_batch,
    parse_dfa,
    sample_members,
    word_to_string,
)
from rangesynth.regular import unroll
from tests.conftest import NFA1_TXT, PARITY_TXT, contains11_verifier
from tests.membership_reference import determinize


class TestParseDfa:
    def test_parity_is_dfa(self):
        a = parse_dfa(PARITY_TXT)
        assert isinstance(a, Dfa)
        assert a.num_states == 2

    def test_out_of_range_state(self):
        with pytest.raises(LanguageError):
            parse_dfa("states 2\nstart 0\nfinal 0\ntrans 0 0 5\n")

    @pytest.mark.parametrize("line, message", [
        ("bogus 1", "line 3: unrecognized line 'bogus 1'"),
        ("trans 0 1", "line 3: unrecognized line 'trans 0 1'"),
        ("trans 0 2 1", "line 3: bit must be 0 or 1"),
        ("trans 0 x 1", "line 3: non-integer field"),
    ])
    def test_bad_line_is_named(self, line, message):
        text = f"states 2\nstart 0  # comment\n{line}\nfinal 0\n"
        with pytest.raises(LanguageError) as exc:
            parse_dfa(text)
        assert str(exc.value) == message

    def test_duplicate_transition_gives_nfa(self):
        a = parse_dfa(NFA1_TXT)
        assert isinstance(a, Nfa)

    def test_missing_transition_rejected(self):
        with pytest.raises(LanguageError):
            parse_dfa("states 2\nstart 0\nfinal 0\ntrans 0 0 0\ntrans 0 1 1\n")

    def test_nfa_transition_table_must_cover_every_state(self):
        short = ((frozenset({0}), frozenset({1})),)
        with pytest.raises(LanguageError, match="every state"):
            Nfa(2, 0, frozenset({1}), short)
        with pytest.raises(LanguageError, match="every state"):
            Nfa(1, 0, frozenset({0}), short * 2)

    def test_determinize_agrees(self):
        a = parse_dfa(NFA1_TXT)
        d = determinize(a)
        for n in range(1, 7):
            for w in range(1 << n):
                bits = [(w >> i) & 1 for i in range(n)]
                assert a.accepts(bits) == d.accepts(bits)


class TestMember:
    def test_cycles_empty_graph(self):
        assert member(Cycles(), [0] * 16) == 1

    def test_cycles_single_edge(self):
        m = np.zeros((4, 4), dtype=np.uint8)
        m[0, 1] = m[1, 0] = 1
        assert member(Cycles(), m.reshape(-1)) == 0

    def test_threshold(self):
        assert member(Threshold(2), [0, 1, 1, 0]) == 1
        assert member(Threshold(2), [0, 1, 0, 0]) == 0

    def test_asymmetric_matrix_rejected(self):
        m = np.zeros((3, 3), dtype=np.uint8)
        m[0, 1] = 1
        with pytest.raises(EncodingError):
            member(Cycles(), m.reshape(-1))

    def test_unreach(self):
        # edge 1->3 present: path exists, not in language
        m = np.zeros((3, 3), dtype=np.uint8)
        m[0, 2] = 1
        assert member(UnReach(), m.reshape(-1)) == 0
        assert member(UnReach(), np.zeros(9, dtype=np.uint8)) == 1

    def test_member_batch_matches_member(self, parity):
        bp = unroll(parity, 4)  # its language holds length-4 words only
        specs = [Regular(parity), Threshold(2), ExactCount(1), Regular(bp)]
        rng = np.random.default_rng(0)
        for n in (5, 2, 4, 6):
            words = rng.integers(0, 2, (200, n), dtype=np.uint8)
            for spec in specs:
                batch = member_batch(spec, words)
                assert list(batch) == [member(spec, w) for w in words]
            assert list(member_batch(Regular(bp), words)) == \
                [n == 4 and parity.accepts(w) for w in words]
        assert member(Regular(bp), [1, 1, 0, 0, 1]) == 0

    def test_ustconn_monotone_under_edges(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = 5
            m = np.zeros((n, n), dtype=np.uint8)
            for i in range(n):
                for j in range(i + 1, n):
                    m[i, j] = m[j, i] = rng.integers(0, 2)
            before = member(USTConn(), m.reshape(-1))
            i, j = sorted(rng.choice(n, size=2, replace=False))
            m[i, j] = m[j, i] = 1
            after = member(USTConn(), m.reshape(-1))
            assert after >= before


GRAPHS = [Cycles(), USTConn(), UnReach()]


def _member_or_reject(spec, word):
    """``member``, counting a malformed graph encoding as a non-member."""
    try:
        return bool(member(spec, word))
    except EncodingError:
        return False


def _undirected(rng, v, density):
    """Symmetric zero-diagonal adjacency matrices, one per (k, 1, 1) density."""
    upper = np.triu(rng.random((len(density), v, v)) < density, k=1)
    return (upper | upper.transpose(0, 2, 1)).astype(np.uint8)


def _graph_words(rng, v, count):
    """Random v-vertex graph words: directed, undirected, and undirected with
    one diagonal bit set or one edge made one-way."""
    q = count // 4
    density = rng.random((count, 1, 1))
    directed = (rng.random((q, v, v)) < density[:q]).astype(np.uint8)
    sym = _undirected(rng, v, density[q:])
    k = np.arange(q)
    diag = sym[:q].copy()
    i = rng.integers(0, v, q)
    diag[k, i, i] = 1
    one_way = sym[q : 2 * q].copy()
    if v > 1:
        i = rng.integers(0, v, q)
        j = (i + rng.integers(1, v, q)) % v
        one_way[k, i, j] ^= 1
    mats = np.concatenate([directed, diag, one_way, sym[2 * q :]])
    return mats.reshape(count, v * v)


def _assert_batch_matches_member(spec, words):
    got = member_batch(spec, words)
    assert got.dtype == bool and got.shape == (len(words),)
    assert got.tolist() == [_member_or_reject(spec, w) for w in words]


def _directed_paths(rng, v, count):
    """(count, v, v) Hamiltonian paths 1 -> ... -> v: diameter v - 1."""
    mats = np.zeros((count, v, v), dtype=np.uint8)
    for m in mats:
        order = np.concatenate([[0], 1 + rng.permutation(v - 2), [v - 1]])
        m[order[:-1], order[1:]] = 1
    return mats


class TestMemberBatchDifferential:
    """member_batch against the per-word member on every spec family."""

    @pytest.mark.parametrize("spec", GRAPHS, ids=lambda s: type(s).__name__)
    @pytest.mark.parametrize("v", range(1, 9))
    def test_graph_specs(self, spec, v):
        words = _graph_words(np.random.default_rng(v), v, 400)
        _assert_batch_matches_member(spec, words)

    @given(st.integers(1, 8), st.integers(0, 60), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_graph_specs_random(self, v, rows, seed):
        words = _graph_words(np.random.default_rng(seed), v, rows)
        for spec in GRAPHS:
            _assert_batch_matches_member(spec, words)

    def test_malformed_undirected_rows_rejected(self):
        diag = np.zeros((3, 3), dtype=np.uint8)
        diag[1, 1] = 1
        one_way = np.zeros((3, 3), dtype=np.uint8)
        one_way[0, 2] = 1
        words = np.stack([diag.reshape(-1), one_way.reshape(-1)])
        for spec in (Cycles(), USTConn()):
            for w in words:
                with pytest.raises(EncodingError):
                    member(spec, w)
            assert member_batch(spec, words).tolist() == [False, False]
        assert member_batch(UnReach(), words).tolist() == [True, False]

    @pytest.mark.parametrize("v", [2, 3, 8, 20, 40])
    def test_directed_paths_of_full_diameter(self, v):
        rng = np.random.default_rng(v)
        paths = _directed_paths(rng, v, 30)
        cut = paths.copy()
        for m in cut:  # drop one edge of each path: t is no longer reachable
            i, j = np.argwhere(m)[rng.integers(0, v - 1)]
            m[i, j] = 0
        words = np.concatenate([paths, cut]).reshape(-1, v * v)
        assert member_batch(UnReach(), words).tolist() == [False] * 30 + [True] * 30
        _assert_batch_matches_member(UnReach(), words)
        sym = (words.reshape(-1, v, v) | words.reshape(-1, v, v).transpose(0, 2, 1))
        sym = sym.reshape(-1, v * v)
        assert member_batch(USTConn(), sym).tolist() == [True] * 30 + [False] * 30
        _assert_batch_matches_member(USTConn(), sym)

    @pytest.mark.parametrize("spec", GRAPHS, ids=lambda s: type(s).__name__)
    def test_rows_span_several_chunks(self, spec, monkeypatch):
        v = 7
        monkeypatch.setattr(circuit, "_CHUNK_BYTES", 8 * v * v)  # 64 rows a block
        blocks = []
        graph_accepts = languages._graph_accepts

        def counting_graph_accepts(spec, v, Q):
            blocks.append(Q.shape[1])
            return graph_accepts(spec, v, Q)

        monkeypatch.setattr(languages, "_graph_accepts", counting_graph_accepts)
        rng = np.random.default_rng(5)
        paths = _directed_paths(rng, v, 20).reshape(-1, v * v)
        words = np.concatenate([_graph_words(rng, v, 300), paths])
        words = words[rng.permutation(len(words))]
        _assert_batch_matches_member(spec, words)
        assert blocks == [1] * 5

    def test_np_and_combined_specs_with_duplicates(self, parity, monkeypatch):
        verifier = contains11_verifier()  # num_x = 3
        cases = [
            (NpPadded(verifier), 5),
            (NpCoSac(verifier), 3),
            (NpSac(verifier), 3),
            (Combined("union", (Threshold(3), Regular(parity))), 5),
        ]
        rng = np.random.default_rng(7)
        calls = []
        real_member = languages.member

        def counting_member(spec, word):
            calls.append(spec)
            return real_member(spec, word)

        for spec, n in cases:
            words = rng.integers(0, 2, (300, n), dtype=np.uint8)
            expect = [bool(member(spec, w)) for w in words]
            calls.clear()
            monkeypatch.setattr(languages, "member", counting_member)
            got = member_batch(spec, words)
            monkeypatch.undo()
            assert got.tolist() == expect
            top = [c for c in calls if c is spec]
            assert len(top) == len(np.unique(words, axis=0)) < len(words)


class TestMemberBatchInput:
    def test_bad_bit_rejected_like_member(self):
        with pytest.raises(InputBitError):
            member(UnReach(), [2, 0, 0, 0])
        for spec in (UnReach(), USTConn(), Threshold(1), ExactCount(1)):
            with pytest.raises(InputBitError):
                member_batch(spec, [[2, 0, 0, 0]])

    def test_bool_words_accepted(self):
        words = np.array([[True, False, False, False]])
        assert member_batch(UnReach(), words).tolist() == [True]

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
    def test_words_must_be_two_dimensional(self, shape):
        with pytest.raises(InputArityError):
            member_batch(Threshold(1), np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("spec", GRAPHS, ids=lambda s: type(s).__name__)
    def test_empty_graph_word_rejected(self, spec):
        with pytest.raises(EncodingError):
            member(spec, [])
        with pytest.raises(EncodingError):
            member_batch(spec, np.zeros((3, 0), dtype=np.uint8))

    @pytest.mark.parametrize("spec", GRAPHS + [Combined("finite", (), (("01",),))],
                             ids=lambda s: type(s).__name__)
    def test_zero_rows(self, spec):
        got = member_batch(spec, np.zeros((0, 4), dtype=np.uint8))
        assert got.dtype == bool and got.shape == (0,)


class TestEnumerate:
    def test_exact_count(self):
        got = [word_to_string(w) for w in enumerate_slice(ExactCount(1), 3)]
        assert got == ["001", "010", "100"]

    def test_parity(self, parity):
        got = [word_to_string(w) for w in enumerate_slice(Regular(parity), 2)]
        assert got == ["00", "11"]

    def test_cycles_count_matches_degree_filter(self):
        got = enumerate_slice(Cycles(), 16)  # 4 vertices
        # even-degree graphs on 4 vertices = 2^C(3,2) = 8 (cycle space dim 3)
        assert len(got) == 8
        for w in got:
            assert member(Cycles(), w)

    def test_budget_refusal(self):
        with pytest.raises(BudgetError):
            enumerate_slice(Threshold(1), 40)

    def test_member_iff_enumerated(self, th2):
        spec = Regular(th2)
        got = {bytes(w) for w in enumerate_slice(spec, 5)}
        for w in range(1 << 5):
            bits = bytes((w >> i) & 1 for i in range(5))
            assert (bits in got) == bool(member(spec, list(bits)))


class TestSampleMembers:
    def test_counting_direct_sampler(self):
        words = sample_members(Threshold(3), 10, 50, seed=1)
        assert words.shape == (50, 10)
        assert (words.sum(axis=1) >= 3).all()
        words = sample_members(ExactCount(4), 10, 50, seed=1)
        assert (words.sum(axis=1) == 4).all()

    def test_rejection_sampler(self, parity):
        words = sample_members(Regular(parity), 8, 30, seed=2)
        assert all(member(Regular(parity), w) for w in words)

    def test_cycles_sampler(self):
        """Members at any size, v = 20 included, and at v = 4 every member of
        the 8-element cycle space turns up."""
        for v in (1, 2, 3, 4, 7, 20, 40):
            words = sample_members(Cycles(), v * v, 400, seed=v)
            assert words.shape == (400, v * v) and words.dtype == np.uint8
            assert member_batch(Cycles(), words).all()
        seen = {w.tobytes() for w in sample_members(Cycles(), 16, 400, seed=3)}
        assert seen == {w.tobytes() for w in enumerate_slice(Cycles(), 16)}

    def test_empty_counting_slice_refused(self):
        for spec in (ExactCount(5), Threshold(5), ExactCount(-1)):
            with pytest.raises(LanguageError, match="no members of length 3"):
                sample_members(spec, 3, 2)
        assert sample_members(ExactCount(3), 3, 2).tolist() == [[1, 1, 1]] * 2

    def test_zero_count(self, parity):
        for spec, n in ((Regular(parity), 6), (Cycles(), 9), (UnReach(), 9),
                        (Threshold(2), 6), (ExactCount(0), 6)):
            words = sample_members(spec, n, 0)
            assert words.shape == (0, n) and words.dtype == np.uint8

    def test_deterministic_given_seed(self):
        a = sample_members(Threshold(2), 12, 20, seed=9)
        b = sample_members(Threshold(2), 12, 20, seed=9)
        assert np.array_equal(a, b)


class TestWordStrings:
    def test_one_word(self):
        assert word_to_string([1, 0, 1]) == "101"
        assert word_to_string(np.array([0, 1], dtype=np.uint8)) == "01"
        assert word_to_string([]) == ""
        assert word_to_string(np.array([True, False, True])) == "101"
        assert word_to_string(b"\x00\x01") == "01"
        assert word_to_string(b"") == ""

    def test_rows_match_one_word(self):
        words = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)
        assert [word_to_string(w) for w in words] == ["011", "100"]
