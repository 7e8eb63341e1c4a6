"""Language descriptions and ground-truth membership oracles.

Every language here is a set of fixed-length bit words.  Graph languages use
the standard row-major n x n adjacency matrix encoding; undirected languages
additionally require symmetry and a zero diagonal, and reject malformed
encodings with :class:`EncodingError`.  Vertices are 1-indexed with s = 1 and
t = n.

``member`` is the single source of truth the verification harness trusts.
``member_batch`` answers a whole (N, n) batch for every spec, through one
oracle on bit-sliced words, 64 to a uint64 as the circuit evaluator lays
them out: one walk over boolean relations for DFAs, NFAs and BPs alike, a
bit-sliced adder tree compared with t for the counting specs, and XOR/OR
reductions plus a bit-sliced frontier closure from s for the graphs.  Every
other spec (NP verifiers, combinator trees) takes one ``member`` call per
distinct word, the words keyed as packed uint64s.  Sampled soundness hands
the evaluator's words straight to that packed oracle; ``member_batch`` packs
its rows first.  ``enumerate_slice`` and ``sample_members`` lay their
candidates out bit-sliced as well, through one map from an encoding's free
bits to its words (``_space``), and decide them with the same oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import circuit
from .circuit import (
    _ALL_ONES, _all_packed, _as_bits, _distinct_rows, _pack_rows, _unpack_rows,
)


class LanguageError(ValueError):
    """Base class for language / oracle errors."""


class EncodingError(LanguageError):
    """Word is not a valid encoding for the language's shape."""


class BudgetError(LanguageError):
    """Requested enumeration exceeds the configured budget."""


# ---------------------------------------------------------------------------
# automata


@dataclass(frozen=True)
class Dfa:
    """Total deterministic automaton over {0,1}."""

    num_states: int
    start: int
    finals: frozenset
    delta: tuple  # delta[state] = (on0, on1)

    def __post_init__(self):
        w = self.num_states
        if not (0 <= self.start < w):
            raise LanguageError(f"start state {self.start} out of range")
        if not all(0 <= f < w for f in self.finals):
            raise LanguageError("final state out of range")
        if len(self.delta) != w:
            raise LanguageError("transition table must cover every state")
        for p, (q0, q1) in enumerate(self.delta):
            for q in (q0, q1):
                if not (0 <= q < w):
                    raise LanguageError(f"transition {p} -> {q} out of range")

    def accepts(self, word) -> bool:
        q = self.start
        for b in _as_bits(word, (None,), "word").tolist():
            q = self.delta[q][b]
        return q in self.finals


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic automaton over {0,1}; transitions may be empty."""

    num_states: int
    start: int
    finals: frozenset
    delta: tuple  # delta[state] = (frozenset on0, frozenset on1)

    def __post_init__(self):
        w = self.num_states
        if not (0 <= self.start < w):
            raise LanguageError(f"start state {self.start} out of range")
        if not all(0 <= f < w for f in self.finals):
            raise LanguageError("final state out of range")
        if len(self.delta) != w:
            raise LanguageError("transition table must cover every state")
        for p, (s0, s1) in enumerate(self.delta):
            for q in s0 | s1:
                if not (0 <= q < w):
                    raise LanguageError(f"transition {p} -> {q} out of range")

    def accepts(self, word) -> bool:
        cur = {self.start}
        for b in _as_bits(word, (None,), "word").tolist():
            cur = {q for p in cur for q in self.delta[p][b]}
            if not cur:
                return False
        return bool(cur & self.finals)


def _records(text: str, arity: dict, error: type):
    """``(line number, key, int fields)`` for each line of a spec text.

    ``#`` starts a comment and blank lines are skipped.  ``arity[key]`` is a
    key's field count, or None for any count; another key or count, or a
    field that is not an integer, raises ``error`` naming the line.
    """
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *fields = line.split()
        if key not in arity or arity[key] not in (None, len(fields)):
            raise error(f"line {lineno}: unrecognized line {line!r}")
        try:
            vals = [int(t) for t in fields]
        except ValueError:
            raise error(f"line {lineno}: non-integer field") from None
        yield lineno, key, vals


def parse_dfa(text: str):
    """Parse the automaton text format.

    Lines: ``states <w>``, ``start <q0>``, ``final <q...>`` and one
    ``trans <p> <bit> <q>`` per edge; ``#`` starts a comment.  Duplicate
    (state, bit) transitions make the result an :class:`Nfa`; a missing one
    without any duplicates is a deterministic-mode error.
    """
    num_states = start = None
    finals: set[int] = set()
    edges: list[tuple[int, int, int]] = []
    arity = {"states": 1, "start": 1, "final": None, "trans": 3}
    for lineno, key, vals in _records(text, arity, LanguageError):
        if key == "states":
            num_states = vals[0]
        elif key == "start":
            start = vals[0]
        elif key == "final":
            finals.update(vals)
        elif vals[1] not in (0, 1):  # trans p bit q
            raise LanguageError(f"line {lineno}: bit must be 0 or 1")
        else:
            edges.append(tuple(vals))
    if num_states is None or start is None:
        raise LanguageError("missing 'states' or 'start' line")
    succ = [[set(), set()] for _ in range(num_states)]
    for p, b, q in edges:
        if not (0 <= p < num_states) or not (0 <= q < num_states):
            raise LanguageError(f"transition {p} -{b}-> {q} references missing state")
        succ[p][b].add(q)
    nondet = any(len(s) > 1 for row in succ for s in row)
    if nondet:
        delta = tuple((frozenset(row[0]), frozenset(row[1])) for row in succ)
        return Nfa(num_states, start, frozenset(finals), delta)
    for p, row in enumerate(succ):
        for b in (0, 1):
            if not row[b]:
                raise LanguageError(f"missing transition for state {p} on bit {b}")
    delta = tuple((next(iter(row[0])), next(iter(row[1]))) for row in succ)
    return Dfa(num_states, start, frozenset(finals), delta)


# ---------------------------------------------------------------------------
# language specs


@dataclass(frozen=True)
class Regular:
    automaton: object  # Dfa | Nfa | regular.LayeredBp (anything with accepts)


@dataclass(frozen=True)
class Threshold:
    t: int


@dataclass(frozen=True)
class ExactCount:
    t: int


@dataclass(frozen=True)
class Cycles:
    pass


@dataclass(frozen=True)
class USTConn:
    pass


@dataclass(frozen=True)
class UnReach:
    pass


@dataclass(frozen=True)
class NpPadded:
    """({1} . L . {0}) union 0^n union 1^n, for L given by an NP verifier."""

    verifier: object  # npsys.VerifierCircuit


@dataclass(frozen=True)
class NpCoSac:
    """L union {0^n} for L given by an NP verifier (co-SAC construction)."""

    verifier: object


@dataclass(frozen=True)
class NpSac:
    """L union {1^n} for L given by an NP verifier (SAC construction)."""

    verifier: object


@dataclass(frozen=True)
class Combined:
    """Combinator tree over specs; ``op`` and ``args`` mirror combinators.py."""

    op: str
    specs: tuple
    params: tuple = ()


GRAPH_SPECS = (Cycles, USTConn, UnReach)


def _graph_side(n: int) -> int:
    v = math.isqrt(n)
    if v * v != n:
        raise EncodingError(f"graph word length {n} is not a perfect square")
    if v == 0:
        raise EncodingError("graph word is empty")
    return v


def _as_matrix(word: np.ndarray, undirected: bool) -> np.ndarray:
    v = _graph_side(len(word))
    m = word.reshape(v, v)
    if undirected:
        if np.any(np.diag(m)):
            raise EncodingError("undirected encoding has a diagonal bit set")
        if not np.array_equal(m, m.T):
            raise EncodingError("undirected encoding is not symmetric")
    return m


def degrees_even(m: np.ndarray) -> bool:
    return not np.any(m.sum(axis=1) % 2)


def _bfs_dist(m: np.ndarray, src: int, until: int | None = None) -> np.ndarray:
    """Hops from ``src`` along the rows of adjacency matrix m (-1: unreached).

    With ``until``, the search stops at the level that reaches that vertex:
    every vertex nearer than it is levelled, farther ones may read -1.
    """
    dist = np.full(len(m), -1, dtype=np.int64)
    dist[src] = 0
    frontier = np.array([src])
    hops = 0
    while frontier.size and (until is None or dist[until] < 0):
        hops += 1
        frontier = np.flatnonzero(m[frontier].any(axis=0) & (dist < 0))
        dist[frontier] = hops
    return dist


def member(spec, word) -> int:
    """Ground-truth membership: 1 if the word is in the language."""
    word = _as_bits(word, (None,), "word")
    if isinstance(spec, Regular):
        return int(spec.automaton.accepts(word))
    if isinstance(spec, Threshold):
        return int(int(word.sum()) >= spec.t)
    if isinstance(spec, ExactCount):
        return int(int(word.sum()) == spec.t)
    if isinstance(spec, Cycles):
        return int(degrees_even(_as_matrix(word, undirected=True)))
    if isinstance(spec, USTConn):
        return int(_bfs_dist(_as_matrix(word, undirected=True), 0)[-1] >= 0)
    if isinstance(spec, UnReach):
        return int(_bfs_dist(_as_matrix(word, undirected=False), 0)[-1] < 0)
    if isinstance(spec, NpPadded):
        from .npsys import verifier_member

        n = len(word)
        if n < 2:
            raise LanguageError("padded language needs length >= 2")
        if not word.any() or word.all():
            return 1
        if word[0] == 1 and word[-1] == 0:
            return int(verifier_member(spec.verifier, word[1:-1]))
        return 0
    if isinstance(spec, NpCoSac):
        from .npsys import verifier_member

        return int(not word.any() or verifier_member(spec.verifier, word))
    if isinstance(spec, NpSac):
        from .npsys import verifier_member

        return int(bool(word.all()) or verifier_member(spec.verifier, word))
    if isinstance(spec, Combined):
        return _member_combined(spec, word)
    raise LanguageError(f"unknown spec {spec!r}")


def _member_combined(spec: Combined, word: np.ndarray) -> int:
    op = spec.op
    if op == "union":
        return int(any(member(s, word) for s in spec.specs))
    if op == "reverse":
        return member(spec.specs[0], word[::-1])
    if op == "upclose":
        # any sub-word of the members dominates: check by brute force over the
        # inner spec's slice (desk scale only).
        inner = spec.specs[0]
        for cand in enumerate_slice(inner, len(word)):
            if np.all(cand <= word):
                return 1
        return 0
    if op == "concat_left":
        words = spec.params[0]
        k = len(words[0]) if words else 0
        if len(word) < k:
            return 0
        head = word_to_string(word[:k])
        return int(head in set(words) and member(spec.specs[0], word[k:]))
    if op == "concat_right":
        words = spec.params[0]
        k = len(words[0]) if words else 0
        if len(word) < k:
            return 0
        tail = word_to_string(word[len(word) - k:])
        return int(tail in set(words) and member(spec.specs[0], word[: len(word) - k]))
    if op == "morphism":
        h0, h1 = spec.params
        k = len(h0)
        if len(word) % k:
            return 0
        img0 = _as_bits(h0, (k,), "h(0)")
        img1 = _as_bits(h1, (k,), "h(1)")
        pre = []
        for i in range(0, len(word), k):
            block = word[i : i + k]
            if np.array_equal(block, img0):
                pre.append([0] if not np.array_equal(img0, img1) else [0, 1])
            elif np.array_equal(block, img1):
                pre.append([1])
            else:
                return 0
        # membership of some choice sequence; ambiguity only when h0 == h1.
        from itertools import product

        for choice in product(*pre):
            if member(spec.specs[0], np.array(choice, dtype=np.uint8)):
                return 1
        return 0
    if op == "inverse_morphism":
        h0, h1 = spec.params
        img = word_to_string(np.concatenate(
            [_as_bits(h0 if b == 0 else h1, (len(h0),), "h") for b in word]
        )) if len(word) else ""
        return member(spec.specs[0], img)
    if op == "finite":
        return int(word_to_string(word) in set(spec.params[0]))
    raise LanguageError(f"unknown combinator {op!r}")


def member_batch(spec, words: np.ndarray) -> np.ndarray:
    """Vectorized membership over a (N, n) 0/1 array; returns bool (N,).

    The rows are checked, bit-sliced (:func:`circuit._pack_rows`) and
    decided by :func:`_member_packed`.
    """
    words = _as_bits(words, (None, None), "words")
    return _member_packed(spec, _pack_rows(words), len(words))


# ---------------------------------------------------------------------------
# membership on bit-sliced words


def _member_packed(spec, Q: np.ndarray, rows: int) -> np.ndarray:
    """Membership of the first ``rows`` words held bit-sliced in Q.

    ``Q`` is (n, words) uint64 in the evaluator's layout: bit r % 64 of
    ``Q[i, r // 64]`` is bit i of word r, and bits past ``rows`` are
    ignored.  Returns bool (rows,).  Automata, structured BPs, counting and
    graph specs are decided on the words, in blocks that keep each temporary
    near ``circuit._CHUNK_BYTES``, and so is ``upclose`` over the inner
    slice, enumerated once per (inner spec, n).  Every other spec (NP
    verifiers, other combinator trees) takes one :func:`member` call per
    distinct word, and only those words are unpacked
    (:func:`circuit._distinct_rows`).
    """
    decider = _packed_decider(spec, len(Q))
    if decider is None:
        words, inverse = _distinct_rows(Q, rows)
        return np.array([bool(member(spec, w)) for w in words], dtype=bool)[inverse]
    decide, temp_rows = decider
    step = max(1, circuit._CHUNK_BYTES // (8 * temp_rows))
    ok = [np.zeros(0, dtype=np.uint64)]
    ok += [decide(Q[:, start : start + step]) for start in range(0, Q.shape[1], step)]
    raw = np.ascontiguousarray(np.concatenate(ok), dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, count=rows, bitorder="little").astype(bool)


def _packed_decider(spec, n: int):
    """``(decide, temp_rows)`` for a spec decided on packed words, else None.

    ``decide`` maps a (n, words) uint64 block to its (words,) accept bits,
    and its temporaries hold at most ``temp_rows`` uint64 rows.
    """
    if isinstance(spec, GRAPH_SPECS):
        v = _graph_side(n)
        return partial(_graph_accepts, spec, v), v * v
    if isinstance(spec, (Threshold, ExactCount)):
        return partial(_count_accepts, spec), 3 * (n + 1)
    if isinstance(spec, Combined) and spec.op == "upclose":
        try:
            return _upclose_decider(spec.specs[0], n)
        except TypeError:  # an unhashable inner spec
            return _upclose_decider.__wrapped__(spec.specs[0], n)
    if not isinstance(spec, Regular):
        return None
    from .regular import LayeredBp

    a = spec.automaton
    if isinstance(a, (Dfa, Nfa)):
        try:
            start, step, accept = _automaton_walk(a)
        except TypeError:  # unhashable, e.g. an automaton built with list fields
            start, step, accept = _automaton_walk.__wrapped__(a)
        steps = [(j, *step) for j in range(n)]
    elif isinstance(a, LayeredBp) and _standard_widths(a):
        if n != a.n:
            return _reject_all, 1
        start, accept = np.ones(1, dtype=bool), np.asarray(a.accept, dtype=bool)
        steps = [(a.gap_var[g] - 1, *_edges(a.rel0[g], a.rel1[g])) for g in range(a.n)]
    else:
        return None
    temp_rows = max([2 * len(accept) + 1] + [len(src) for _, src, _ in steps])
    return partial(_walk, start, steps, accept), temp_rows


# Widest slices _minimal reduces: its table of every word takes 2^n bytes,
# twice, and the default enumeration budget walks no wider space.
_DENSE_BITS = 24


@lru_cache(maxsize=16)
def _upclose_decider(inner, n: int) -> tuple:
    """``(decide, temp_rows)`` of the upward closure of the inner spec's
    length-n members, enumerated once for every equal (inner, n): a word is
    accepted when some member's ones are all ones of the word.

    Each member ANDs the rows of Q at its ones; the words OR over members.
    A member with no ones accepts every word; an empty slice accepts none.
    Up to ``_DENSE_BITS`` bits, a slice whose members hold at least 2^n / 64
    bits is first reduced to its minimal members (:func:`_minimal`), whose
    table passes then cost about what one enumeration of the slice did;
    sparser slices are gathered as they are.
    """
    members = enumerate_slice(inner, n)
    if not len(members):
        return _reject_all, 1
    if not members.any(axis=1).all():
        return (lambda Q: np.full(Q.shape[1], _ALL_ONES)), 1
    n = members.shape[1]
    if n <= _DENSE_BITS and 64 * members.size >= 1 << n:
        members = _minimal(members)
    cand, col = np.nonzero(members)
    starts = np.searchsorted(cand, np.arange(len(members)))
    return partial(_dominates, col, starts), len(col) + len(starts)


def _minimal(members: np.ndarray) -> np.ndarray:
    """The members, each with a one, that lie above no other member, in
    their order: two passes per bit over a table of every word mark the
    words some member lies below or at, then those with such a word one bit
    below."""
    weight = members.sum(axis=1)
    if weight.min() == weight.max():  # none lies above another
        return members
    n = members.shape[1]
    key = np.packbits(members, axis=1, bitorder="little") @ (
        1 << 8 * np.arange(-(-n // 8), dtype=np.int64))
    up, above = np.zeros((2, 1 << n), dtype=bool)
    up[key] = True
    for i in range(n):
        u = up.reshape(-1, 2, 1 << i)
        u[:, 1] |= u[:, 0]
    for i in range(n):
        above.reshape(-1, 2, 1 << i)[:, 1] |= up.reshape(-1, 2, 1 << i)[:, 0]
    return members[~above[key]]


def _reject_all(Q: np.ndarray) -> np.ndarray:
    return np.zeros(Q.shape[1], dtype=np.uint64)


def _dominates(col, starts, Q: np.ndarray) -> np.ndarray:
    """(words,) bits: OR over segments ``col[starts[k] : starts[k + 1]]`` of
    the AND of Q's rows at that segment."""
    return np.bitwise_or.reduce(np.bitwise_and.reduceat(Q[col], starts, axis=0), axis=0)


@lru_cache(maxsize=64)
def _automaton_walk(a) -> tuple:
    """``(start, (src, starts), accept)`` of an automaton's walk; shared by
    every equal automaton."""
    w = a.num_states
    rel = np.zeros((2, w, w), dtype=bool)
    for p, succ in enumerate(a.delta):
        for bit, qs in enumerate(succ):
            rel[bit, p, list(qs if isinstance(a, Nfa) else {qs})] = True
    start, accept = np.zeros(w, dtype=bool), np.zeros(w, dtype=bool)
    start[a.start] = True
    accept[list(a.finals)] = True
    return start, _edges(rel[0], rel[1]), accept


def _standard_widths(bp) -> bool:
    """Whether the BP's relations and accept vector have widths (1, w, ..., w, 1)."""
    shapes = [(1, bp.width)] + [(bp.width, bp.width)] * (bp.n - 1)
    return (bp.n >= 1 and np.shape(bp.accept) == (bp.width,)
            and [np.shape(r) for r in bp.rel0[: bp.n]] == shapes
            and [np.shape(r) for r in bp.rel1[: bp.n]] == shapes)


def _edges(rel0, rel1) -> tuple:
    """One step's relations as the ``(src, starts)`` of :func:`_walk`.

    New state q ORs rows ``src[starts[q] : starts[q + 1]]`` of the stacked
    (S & ~x, S & x, 0): p for each ``rel0[p, q]``, w + p for each
    ``rel1[p, q]``, and the zero row 2w, which keeps every segment non-empty.
    """
    rel0, rel1 = np.asarray(rel0, dtype=bool), np.asarray(rel1, dtype=bool)
    into = np.concatenate([rel0, rel1, np.ones((1, rel0.shape[1]), dtype=bool)])
    q, src = np.nonzero(into.T)
    return src, np.searchsorted(q, np.arange(rel0.shape[1]))


def _walk(start, steps, accept, Q: np.ndarray) -> np.ndarray:
    """(words,) accept bits of a relation walk over bit-sliced words Q.

    The state set S holds a (words,) row per state, bit r set when word r
    can be in that state.  A step ``(col, src, starts)`` reads x = Q[col]:
    S'[q] = OR_p ((S[p] & ~x) & R0[p, q]) | ((S[p] & x) & R1[p, q]).
    """
    S = np.zeros((len(start), Q.shape[1]), dtype=np.uint64)
    S[start] = _ALL_ONES
    zero = np.zeros((1, Q.shape[1]), dtype=np.uint64)
    for col, src, starts in steps:
        x = Q[col]
        S = np.bitwise_or.reduceat(np.concatenate((S & ~x, S & x, zero))[src], starts, axis=0)
    return np.bitwise_or.reduce(S[accept], axis=0)


def _count_planes(Q: np.ndarray) -> np.ndarray:
    """(b, words) bit planes, least significant first, of how many of the n
    rows of bit-sliced words Q have each bit set; b = 0 when n = 0.

    A tree of ripple-carry adders: each level adds the numbers in pairs,
    every pair at once, and gains one plane.
    """
    X = Q[:, None, :]  # (numbers, planes, words)
    while len(X) > 1:
        if len(X) % 2:
            X = np.concatenate([X, np.zeros_like(X[:1])])
        a, b = X[0::2], X[1::2]
        out = np.empty((len(a), a.shape[1] + 1, X.shape[2]), dtype=np.uint64)
        carry = np.zeros_like(a[:, 0])
        for i in range(a.shape[1]):
            x = a[:, i] ^ b[:, i]
            out[:, i] = x ^ carry
            carry = (a[:, i] & b[:, i]) | (x & carry)
        out[:, -1] = carry
        X = out
    return X[0] if len(X) else np.zeros((0, Q.shape[1]), dtype=np.uint64)


def _count_accepts(spec, Q: np.ndarray) -> np.ndarray:
    """(words,) accept bits of a Threshold or ExactCount spec on bit-sliced
    words Q: the count's planes against the constant t, from the top plane
    down."""
    t, exact = spec.t, isinstance(spec, ExactCount)
    if t > len(Q) or (exact and t < 0):
        return np.zeros(Q.shape[1], dtype=np.uint64)
    eq = np.full(Q.shape[1], _ALL_ONES)  # count and t agree on the planes so far
    if t <= 0 and not exact:
        return eq
    gt = np.zeros_like(eq)  # count > t on the planes so far
    planes = _count_planes(Q)
    for i in reversed(range(len(planes))):  # t < 2^len(planes), as t <= n
        if t >> i & 1:
            eq &= planes[i]
        else:
            gt |= eq & planes[i]
            eq &= ~planes[i]
    return eq if exact else gt | eq


def _graph_accepts(spec, v: int, Q: np.ndarray) -> np.ndarray:
    """(words,) accept bits of a graph spec on bit-sliced v x v matrices Q."""
    A = Q.reshape(v, v, -1)
    if isinstance(spec, UnReach):
        return ~_reaches_last(A)
    diag = np.arange(v)
    bad = (np.bitwise_or.reduce(A[diag, diag], axis=0)
           | np.bitwise_or.reduce(A ^ A.transpose(1, 0, 2), axis=(0, 1)))
    if isinstance(spec, Cycles):  # an odd degree is an odd row
        return ~(bad | np.bitwise_or.reduce(np.bitwise_xor.reduce(A, axis=1), axis=0))
    return _reaches_last(A) & ~bad


def _reaches_last(A: np.ndarray) -> np.ndarray:
    """(words,) bits: vertex v - 1 is reachable from vertex 0 along A's rows.

    A bit-sliced frontier closure: each hop ORs ``front[i] & A[i, :]`` over
    the frontier vertices i and keeps what was not seen; a word that has
    reached vertex v - 1 drops its frontier, and the closure stops when no
    frontier is left -- at most diameter + 1 hops.
    """
    v, _, words = A.shape
    seen = np.zeros((v, words), dtype=np.uint64)
    seen[0] = _ALL_ONES
    live, front = np.zeros(1, dtype=np.intp), seen[:1]
    while len(live):
        new = np.bitwise_or.reduce(front[:, None] & A[live], axis=0) & ~seen
        seen |= new
        new &= ~seen[-1]
        live = np.flatnonzero(new.any(axis=1))
        front = new[live]
    return seen[-1]


def _space(spec, n: int) -> tuple:
    """``(bits, place)``: how many bits of a valid length-n encoding are
    free, and ``place``, which maps bit-sliced free bits (bits, words) to
    the bit-sliced words (n, words) they encode.

    Every bit of a plain word or a directed graph is free, and ``place`` is
    the identity.  An undirected graph is free in its upper triangle, pairs
    (i, j) with i < j in row-major order; ``place`` gathers both halves of
    the matrix from those rows and the diagonal from one zero row.
    """
    v = _graph_side(n) if isinstance(spec, GRAPH_SPECS) else 0
    if not isinstance(spec, (Cycles, USTConn)):
        return n, lambda F: F
    iu, ju = np.triu_indices(v, k=1)
    at = np.full((v, v), len(iu))  # the zero row
    at[iu, ju] = at[ju, iu] = np.arange(len(iu))
    at = at.ravel()

    def place(F):
        return np.concatenate([F, np.zeros((1, F.shape[1]), dtype=np.uint64)])[at]
    return len(iu), place


def enumerate_slice(spec, n: int, budget: int = 1 << 24) -> np.ndarray:
    """All length-n members in lexicographic order, as a (K, n) uint8 array.

    Every valid encoding (:func:`_space`) is walked bit-sliced, the free
    bits in :func:`circuit._all_packed` order with the first one most
    significant, and decided by :func:`_member_packed`.  Refuses when the
    candidate space exceeds the budget.
    """
    bits, place = _space(spec, n)
    if 1 << bits > budget:
        raise BudgetError(
            f"enumerating length {n} needs {1 << bits} candidates, over budget {budget}"
        )
    found = [np.zeros((0, n), dtype=np.uint8)]
    for F, rows in _all_packed(bits):
        Q = place(F[::-1])
        found.append(_unpack_rows(Q, rows)[_member_packed(spec, Q, rows)])
    return np.concatenate(found)


def sample_members(spec, n: int, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic sample of length-n members, for over-budget slices.

    Counting specs are sampled directly (shuffled 1-blocks) and refused when
    no length-n word qualifies.  Cycles is sampled directly too
    (:func:`_sample_cycles`): its members are a 2^-(v-1) share of the
    graphs.  Everything else uses rejection sampling of uniform free bits (:func:`_space`) against
    :func:`_member_packed`, which is fine for the other graph and regular
    languages used here (member density is not tiny).
    """
    rng = np.random.default_rng(seed)
    if isinstance(spec, (Threshold, ExactCount)):
        exact = isinstance(spec, ExactCount)
        least, most = max(spec.t, 0), (spec.t if exact else n)  # ones a member has
        if not least <= most <= n:
            raise LanguageError(f"{spec!r} has no members of length {n}")
        rows = np.zeros((count, n), dtype=np.uint8)
        ones = np.full(count, spec.t) if exact else rng.integers(least, n + 1, count)
        for i in range(count):
            idx = rng.permutation(n)[: ones[i]]
            rows[i, idx] = 1
        return rows
    if isinstance(spec, Cycles):
        return _sample_cycles(rng, _graph_side(n), count)
    bits, place = _space(spec, n)
    out = [np.zeros((0, n), dtype=np.uint8)]
    have = 0
    tries = 0
    while have < count:
        tries += 1
        if tries > 1000:
            raise LanguageError(f"rejection sampling for {spec!r} is not converging")
        batch = max(64, 2 * (count - have))
        Q = place(_pack_rows(rng.integers(0, 2, (batch, bits), dtype=np.uint8)))
        keep = _unpack_rows(Q, batch)[_member_packed(spec, Q, batch)]
        if len(keep):
            out.append(keep[: count - have])
            have += len(out[-1])
    return np.concatenate(out, axis=0)


def _sample_cycles(rng, v: int, count: int) -> np.ndarray:
    """``count`` uniform members of the cycle space on v vertices: uniform
    XORs of the star triangles (0, i, j), 1 <= i < j < v, a basis of it.
    The coefficients are edge (i, j) itself, and edge (0, i) is the parity
    of vertex i's degree among the others."""
    iu, ju = np.triu_indices(v - 1, k=1)
    graphs = np.zeros((count, v, v), dtype=np.uint8)
    rest = graphs[:, 1:, 1:]
    rest[:, iu, ju] = rest[:, ju, iu] = rng.integers(0, 2, (count, len(iu)), dtype=np.uint8)
    graphs[:, 0, 1:] = graphs[:, 1:, 0] = rest.sum(axis=2) & 1
    return graphs.reshape(count, v * v)


def word_to_string(word) -> str:
    """A word of 0/1 values (a sequence, an array or bytes) as a '0'/'1'
    string."""
    bits = (np.frombuffer(word, dtype=np.uint8) if isinstance(word, bytes)
            else np.asarray(word, dtype=np.uint8))
    return (bits + ord("0")).tobytes().decode("ascii")
