"""Row-by-row reference implementations of the membership oracles.

These are the vectorized row paths that the packed oracle in
``rangesynth.languages`` replaced: the subset construction, a DFA walked one
column of an (N, n) batch at a time, s-t reachability by a batched BFS
whose hops are float32 matrix products, counting by row sums, and the
row-wise ``np.unique`` that found the distinct words for per-word ``member``
calls and for ``circuit_range``; and the uint8 candidate paths that the
packed enumeration replaced: ``enumerate_slice`` and ``sample_members`` on
candidate matrices decided by ``member_batch``, and the NP certificate search
on one ``eval_batch`` call per chunk of certificates.  The differential tests
compare the packed deciders, the bit-sliced counting, the keyed distinct
words and the packed enumeration against them and against the per-word
``member``.
"""

import numpy as np

from tests.circuit_reference import all_inputs_reference
from rangesynth import languages
from rangesynth.circuit import _all_packed, _eval_packed, _unpack_rows, eval_batch
from rangesynth.languages import (
    BudgetError, Cycles, Dfa, ExactCount, LanguageError, Nfa, Threshold, UnReach,
    USTConn, _graph_side, member_batch,
)


def determinize(a: Nfa) -> Dfa:
    """Subset construction: the DFA whose states are the NFA's reachable
    state sets."""
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


def automaton_member_batch(a, words) -> np.ndarray:
    """bool (N,): each row of an (N, n) batch run through the automaton
    (determinized first when it is an NFA), one column at a time."""
    dfa = a if isinstance(a, Dfa) else determinize(a)
    words = np.asarray(words, dtype=np.uint8)
    tab = np.array(dfa.delta, dtype=np.int64)  # (w, 2)
    state = np.full(len(words), dfa.start, dtype=np.int64)
    for j in range(words.shape[1]):
        state = tab[state, words[:, j].astype(np.int64)]
    finals = np.zeros(dfa.num_states, dtype=bool)
    finals[list(dfa.finals)] = True
    return finals[state]


def reached(mats) -> np.ndarray:
    """(N, v) bool: the vertices reachable from vertex 0 in each (v, v)
    adjacency matrix, by a batched BFS: each hop pushes every frontier
    through its matrix with one float32 product (exact, as no sum exceeds
    v) and keeps the vertices not reached before."""
    mats = np.asarray(mats)
    n, v = mats.shape[:2]
    adj = mats.astype(np.float32)
    seen = np.zeros((n, v), dtype=bool)
    seen[:, 0] = True
    frontier = seen.astype(np.float32)
    while True:
        new = (np.matmul(frontier[:, None, :], adj)[:, 0] > 0) & ~seen
        if not new.any():
            return seen
        seen |= new
        frontier = new.astype(np.float32)


def count_member_batch(spec, words) -> np.ndarray:
    """bool (N,): a Threshold or ExactCount spec on each row of an (N, n)
    batch, by its row sum."""
    ones = np.asarray(words, dtype=np.uint8).sum(axis=1, dtype=np.int64)
    return ones == spec.t if isinstance(spec, ExactCount) else ones >= spec.t


def distinct_member_batch(spec, words) -> np.ndarray:
    """bool (N,): one ``languages.member`` call per distinct row of an
    (N, n) batch, the rows found by ``np.unique(words, axis=0)``."""
    words = np.asarray(words, dtype=np.uint8)
    distinct, inverse = np.unique(words, axis=0, return_inverse=True)
    answers = np.array([bool(languages.member(spec, w)) for w in distinct], dtype=bool)
    return answers[inverse.reshape(-1)]


def circuit_range(c) -> set[bytes]:
    """The exhaustive range as ``circuit.circuit_range`` gives it, each
    chunk's outputs unpacked and deduplicated with ``np.unique(axis=0)``."""
    seen: set[bytes] = set()
    for P, rows in _all_packed(c.num_inputs):
        for row in np.unique(_unpack_rows(_eval_packed(c, P), rows), axis=0):
            seen.add(row.tobytes())
    return seen


def word_shape(spec) -> str:
    """'word' for plain bit words, 'undirected' / 'directed' for graphs."""
    if isinstance(spec, (Cycles, USTConn)):
        return "undirected"
    if isinstance(spec, UnReach):
        return "directed"
    return "word"


def candidate_count(spec, n: int) -> int:
    """How many length-n candidate encodings there are."""
    shape = word_shape(spec)
    if shape == "word":
        return 1 << n
    v = _graph_side(n)
    if shape == "undirected":
        return 1 << (v * (v - 1) // 2)
    return 1 << n


def symmetric(tri, v: int) -> np.ndarray:
    """Undirected words (symmetric, zero diagonal, v x v row-major) from
    rows of upper-triangle bits in row-major pair order."""
    iu, ju = np.triu_indices(v, k=1)
    mats = np.zeros((len(tri), v, v), dtype=np.uint8)
    mats[:, iu, ju] = tri
    mats[:, ju, iu] = tri
    return mats.reshape(len(tri), v * v)


def candidates(spec, n: int):
    """Yield all valid length-n encodings for the spec, in lexicographic
    order of the word (MSB = first bit), chunked."""
    if word_shape(spec) != "undirected":
        for rows in all_inputs_reference(n):
            yield rows[:, ::-1]
        return
    v = _graph_side(n)  # the first pair, entry (0, 1), is the MSB
    for tri in all_inputs_reference(v * (v - 1) // 2):
        yield symmetric(tri[:, ::-1], v)


def enumerate_slice(spec, n: int, budget: int = 1 << 24) -> np.ndarray:
    """All length-n members in lexicographic order: every candidate matrix
    filtered by ``member_batch``."""
    count = candidate_count(spec, n)
    if count > budget:
        raise BudgetError(
            f"enumerating length {n} needs {count} candidates, over budget {budget}"
        )
    rows = []
    for cand in candidates(spec, n):
        keep = member_batch(spec, cand)
        if keep.any():
            rows.append(cand[keep])
    if not rows:
        return np.zeros((0, n), dtype=np.uint8)
    return np.concatenate(rows, axis=0)


def sample_members(spec, n: int, count: int, seed: int = 0) -> np.ndarray:
    """Rejection sampling of uint8 candidate matrices against ``member_batch``
    (the counting specs' direct sampler is unchanged and not repeated), and
    Cycles as XORs of star triangles, one triangle at a time."""
    assert not isinstance(spec, (Threshold, ExactCount))
    rng = np.random.default_rng(seed)
    if isinstance(spec, Cycles):
        v = _graph_side(n)
        pairs = [(i, j) for i in range(1, v) for j in range(i + 1, v)]
        coeff = rng.integers(0, 2, (count, len(pairs)), dtype=np.uint8)
        out = np.zeros((count, v, v), dtype=np.uint8)
        for graph, row in zip(out, coeff):
            for (i, j), c in zip(pairs, row):
                if c:
                    for a, b in ((0, i), (0, j), (i, j)):
                        graph[a, b] ^= 1
                        graph[b, a] ^= 1
        return out.reshape(count, n)
    shape = word_shape(spec)
    out = [np.zeros((0, n), dtype=np.uint8)]
    have = 0
    tries = 0
    while have < count:
        tries += 1
        if tries > 1000:
            raise LanguageError(f"rejection sampling for {spec!r} is not converging")
        batch = max(64, 2 * (count - have))
        if shape == "undirected":
            v = _graph_side(n)
            cand = symmetric(rng.integers(0, 2, (batch, v * (v - 1) // 2),
                                          dtype=np.uint8), v)
        else:
            cand = rng.integers(0, 2, (batch, n), dtype=np.uint8)
        keep = cand[member_batch(spec, cand)]
        if len(keep):
            out.append(keep[: count - have])
            have += len(out[-1])
    return np.concatenate(out, axis=0)


def certificate(v, x):
    """The first y, in numeric order, with V(x, y) = 1, from one
    ``eval_batch`` call per chunk of uint8 certificate rows; None if there
    is none."""
    for ys in all_inputs_reference(v.num_y):
        batch = np.concatenate(
            [np.broadcast_to(x, (len(ys), v.num_x)), ys], axis=1
        )
        hits = np.flatnonzero(eval_batch(v.circuit, batch)[:, 0])
        if len(hits):
            return ys[hits[0]]
    return None
