"""Language descriptions and ground-truth membership oracles.

Every language here is a set of fixed-length bit words.  Graph languages use
the standard row-major n x n adjacency matrix encoding; undirected languages
additionally require symmetry and a zero diagonal, and reject malformed
encodings with :class:`EncodingError`.  Vertices are 1-indexed with s = 1 and
t = n.

``member`` is the single source of truth the verification harness trusts.
``member_batch`` answers a whole (N, n) batch for every spec: automata,
counting and graph specs in whole-array operations, with s-t reachability
decided by a batched frontier closure from s, and every other spec (NP
verifiers, structured BPs, combinator trees) by one ``member`` call per
distinct word.  ``enumerate_slice`` produces entire length-n slices by
filtering all candidates through the same predicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .circuit import InputArityError, _as_bits


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
        for b in word:
            q = self.delta[q][int(b)]
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
        for p, (s0, s1) in enumerate(self.delta):
            for q in s0 | s1:
                if not (0 <= q < w):
                    raise LanguageError(f"transition {p} -> {q} out of range")

    def accepts(self, word) -> bool:
        cur = {self.start}
        for b in word:
            b = int(b)
            cur = {q for p in cur for q in self.delta[p][b]}
            if not cur:
                return False
        return bool(cur & self.finals)


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
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        try:
            if toks[0] == "states" and len(toks) == 2:
                num_states = int(toks[1])
            elif toks[0] == "start" and len(toks) == 2:
                start = int(toks[1])
            elif toks[0] == "final":
                finals.update(int(t) for t in toks[1:])
            elif toks[0] == "trans" and len(toks) == 4:
                p, b, q = int(toks[1]), int(toks[2]), int(toks[3])
                if b not in (0, 1):
                    raise LanguageError(f"line {lineno}: bit must be 0 or 1")
                edges.append((p, b, q))
            else:
                raise LanguageError(f"line {lineno}: unrecognized line {line!r}")
        except ValueError:
            raise LanguageError(f"line {lineno}: non-integer field") from None
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


def determinize(a: Nfa) -> Dfa:
    """Subset construction; used only for vectorized membership."""
    start = frozenset((a.start,))
    index = {start: 0}
    order = [start]
    delta = []
    i = 0
    while i < len(order):
        cur = order[i]
        row = []
        for b in (0, 1):
            nxt = frozenset(q for p in cur for q in a.delta[p][b])
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        delta.append(tuple(row))
        i += 1
    finals = frozenset(i for i, s in enumerate(order) if s & a.finals)
    return Dfa(len(order), 0, finals, tuple(delta))


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


UNDIRECTED = (Cycles, USTConn)
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


def _bfs_dist(m: np.ndarray, src: int) -> np.ndarray:
    """Hops from ``src`` along the rows of adjacency matrix m (-1: unreached)."""
    dist = np.full(len(m), -1, dtype=np.int64)
    dist[src] = 0
    frontier = np.array([src])
    hops = 0
    while frontier.size:
        hops += 1
        frontier = np.flatnonzero(m[frontier].any(axis=0) & (dist < 0))
        dist[frontier] = hops
    return dist


# float32 adjacency matrices held per chunk of words; bounds member_batch's memory.
_CHUNK_BYTES = 1 << 20


def _reached(mats: np.ndarray) -> np.ndarray:
    """(N, v) bool: the vertices reachable from vertex 0 in each matrix.

    A batched BFS: each hop pushes every frontier through its adjacency
    matrix with one float32 product (exact, as no sum exceeds v) and keeps
    the vertices not reached before, until no frontier is left -- at most
    diameter + 1 hops.  Matrices go in chunks of about _CHUNK_BYTES.
    """
    n, v = mats.shape[:2]
    reach = np.zeros((n, v), dtype=bool)
    reach[:, 0] = True
    rows = max(1, _CHUNK_BYTES // (4 * v * v))
    for start in range(0, n, rows):
        adj = mats[start : start + rows].astype(np.float32)
        seen = reach[start : start + rows]
        frontier = seen.astype(np.float32)
        while True:
            new = (np.matmul(frontier[:, None, :], adj)[:, 0] > 0) & ~seen
            if not new.any():
                break
            seen |= new
            frontier = new.astype(np.float32)
    return reach


def member(spec, word) -> int:
    """Ground-truth membership: 1 if the word is in the language."""
    word = _as_bits(word, len(word), "word")
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
        img0 = _as_bits(h0, k, "h(0)")
        img1 = _as_bits(h1, k, "h(1)")
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
            [_as_bits(h0 if b == 0 else h1, len(h0), "h") for b in word]
        )) if len(word) else ""
        return member(spec.specs[0], img)
    if op == "finite":
        return int(word_to_string(word) in set(spec.params[0]))
    raise LanguageError(f"unknown combinator {op!r}")


def member_batch(spec, words: np.ndarray) -> np.ndarray:
    """Vectorized membership over a (N, n) 0/1 array; returns bool (N,)."""
    words = _as_bits(words, what="words")
    if words.ndim != 2:
        raise InputArityError(f"words must be an (N, n) array, got shape {words.shape}")
    if isinstance(spec, Regular) and isinstance(spec.automaton, (Dfa, Nfa)):
        a = spec.automaton
        dfa = a if isinstance(a, Dfa) else determinize(a)
        tab = np.array(dfa.delta, dtype=np.int64)  # (w, 2)
        state = np.full(len(words), dfa.start, dtype=np.int64)
        for j in range(words.shape[1]):
            state = tab[state, words[:, j].astype(np.int64)]
        finals = np.zeros(dfa.num_states, dtype=bool)
        for f in dfa.finals:
            finals[f] = True
        return finals[state]
    if isinstance(spec, Threshold):
        return words.sum(axis=1, dtype=np.int64) >= spec.t
    if isinstance(spec, ExactCount):
        return words.sum(axis=1, dtype=np.int64) == spec.t
    if isinstance(spec, GRAPH_SPECS):
        v = _graph_side(words.shape[1])
        mats = words.reshape(-1, v, v)
        ok = np.ones(len(words), dtype=bool)
        if isinstance(spec, UNDIRECTED):
            ok &= ~mats[:, np.arange(v), np.arange(v)].any(axis=1)
            ok &= (mats == mats.transpose(0, 2, 1)).all(axis=(1, 2))
        if isinstance(spec, Cycles):
            return ok & ~(mats.sum(axis=2) % 2).any(axis=1)
        t_reached = _reached(mats)[:, v - 1]
        if isinstance(spec, USTConn):
            return ok & t_reached
        return ~t_reached
    distinct, inverse = np.unique(words, axis=0, return_inverse=True)
    answers = np.array([bool(member(spec, w)) for w in distinct], dtype=bool)
    return answers[inverse.reshape(-1)]


def word_shape(spec) -> str:
    """'word' for plain bit words, 'undirected' / 'directed' for graphs."""
    if isinstance(spec, UNDIRECTED):
        return "undirected"
    if isinstance(spec, UnReach):
        return "directed"
    return "word"


def candidate_count(spec, n: int) -> int:
    """log2-free count of length-n candidate encodings."""
    shape = word_shape(spec)
    if shape == "word":
        return 1 << n
    v = _graph_side(n)
    if shape == "undirected":
        return 1 << (v * (v - 1) // 2)
    return 1 << n


def _candidates(spec, n: int, chunk: int = 1 << 16):
    """Yield all valid length-n encodings for the spec, in lexicographic
    order of the word (MSB = first bit), chunked."""
    shape = word_shape(spec)
    if shape == "directed" or shape == "word":
        bits = n
        total = 1 << bits
        shifts = np.arange(bits - 1, -1, -1, dtype=np.uint64)
        start = 0
        while start < total:
            stop = min(start + chunk, total)
            idx = np.arange(start, stop, dtype=np.uint64)
            yield ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
            start = stop
        return
    v = _graph_side(n)
    iu, ju = np.triu_indices(v, k=1)
    # order pair bits so that full words come out lexicographically sorted:
    # the first matrix entry (row 0, col 1) must be the most significant bit.
    bits = len(iu)
    total = 1 << bits
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint64)
    start = 0
    while start < total:
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.uint64)
        tri = ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
        mats = np.zeros((stop - start, v, v), dtype=np.uint8)
        mats[:, iu, ju] = tri
        mats[:, ju, iu] = tri
        yield mats.reshape(stop - start, v * v)
        start = stop


def enumerate_slice(spec, n: int, budget: int = 1 << 24) -> np.ndarray:
    """All length-n members in lexicographic order, as a (K, n) uint8 array.

    Refuses when the candidate space exceeds the budget.
    """
    count = candidate_count(spec, n)
    if count > budget:
        raise BudgetError(
            f"enumerating length {n} needs {count} candidates, over budget {budget}"
        )
    rows = []
    for cand in _candidates(spec, n):
        keep = member_batch(spec, cand)
        if keep.any():
            rows.append(cand[keep])
    if not rows:
        return np.zeros((0, n), dtype=np.uint8)
    return np.concatenate(rows, axis=0)


def sample_members(spec, n: int, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic sample of length-n members, for over-budget slices.

    Counting specs are sampled directly (shuffled 1-blocks); everything else
    uses rejection sampling against member_batch, which is fine for the
    graph and regular languages used here (member density is not tiny).
    """
    rng = np.random.default_rng(seed)
    if isinstance(spec, (Threshold, ExactCount)):
        rows = np.zeros((count, n), dtype=np.uint8)
        ones = (np.full(count, spec.t) if isinstance(spec, ExactCount)
                else rng.integers(spec.t, n + 1, count))
        for i in range(count):
            idx = rng.permutation(n)[: ones[i]]
            rows[i, idx] = 1
        return rows
    shape = word_shape(spec)
    out = []
    have = 0
    tries = 0
    while have < count:
        tries += 1
        if tries > 1000:
            raise LanguageError(f"rejection sampling for {spec!r} is not converging")
        batch = max(64, 2 * (count - have))
        if shape == "undirected":
            v = _graph_side(n)
            iu, ju = np.triu_indices(v, k=1)
            tri = rng.integers(0, 2, (batch, len(iu)), dtype=np.uint8)
            mats = np.zeros((batch, v, v), dtype=np.uint8)
            mats[:, iu, ju] = tri
            mats[:, ju, iu] = tri
            cand = mats.reshape(batch, n)
        else:
            cand = rng.integers(0, 2, (batch, n), dtype=np.uint8)
        keep = cand[member_batch(spec, cand)]
        if len(keep):
            out.append(keep[: count - have])
            have += len(out[-1])
    return np.concatenate(out, axis=0)


def word_to_string(word) -> str:
    """A word of 0/1 values as a '0'/'1' string."""
    return "".join(str(int(b)) for b in word)


def words_to_strings(words: np.ndarray) -> list[str]:
    return [word_to_string(row) for row in words]
