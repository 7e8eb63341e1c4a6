"""Row-by-row reference implementations of the membership oracles.

These are the vectorized row paths that the packed oracle in
``rangesynth.languages`` replaced: the subset construction, a DFA walked one
column of an (N, n) batch at a time, s-t reachability by a batched BFS
whose hops are float32 matrix products, counting by row sums, and the
row-wise ``np.unique`` that found the distinct words for per-word ``member``
calls and for ``circuit_range``.  The differential tests compare the packed
deciders, the bit-sliced counting and the keyed distinct words against them
and against the per-word ``member``.
"""

import numpy as np

from rangesynth import languages
from rangesynth.circuit import _all_packed, _eval_packed, _unpack_rows
from rangesynth.languages import Dfa, ExactCount, Nfa


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
