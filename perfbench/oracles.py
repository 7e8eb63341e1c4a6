"""Known answers and seeded members, written independently of rangesynth.

Nothing here imports ``rangesynth.languages``: the benchmark checks the
program's verdicts, witnesses and outputs against these oracles, so they
must not share code with what they check.  Every member generator builds
its words so that they are members by construction, then the workloads
confirm them with the matching oracle.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# automata: the text the program parses, and the same automaton as a plain
# transition table for the oracle

# Even number of ones.
PARITY_TXT = """\
states 2
start 0
final 0
trans 0 0 0
trans 0 1 1
trans 1 0 1
trans 1 1 0
"""

# Number of ones divisible by 3.
MOD3_TXT = """\
states 3
start 0
final 0
trans 0 0 0
trans 0 1 1
trans 1 0 1
trans 1 1 2
trans 2 0 2
trans 2 1 0
"""

# At least two ones (counter saturating at 2).
TH2_TXT = """\
states 3
start 0
final 2
trans 0 0 0
trans 0 1 1
trans 1 0 1
trans 1 1 2
trans 2 0 2
trans 2 1 2
"""

# Contains a one; two 1-successors from the start make it a genuine NFA.
NFA1_TXT = """\
states 2
start 0
final 1
trans 0 0 0
trans 0 1 0
trans 0 1 1
trans 1 0 1
trans 1 1 1
"""


class Automaton:
    """Transition sets read straight from the text format, for the oracle."""

    def __init__(self, text: str):
        self.text = text
        self.succ: dict = {}
        self.finals: set = set()
        for line in text.splitlines():
            toks = line.split()
            if toks[0] == "start":
                self.start = int(toks[1])
            elif toks[0] == "final":
                self.finals = {int(t) for t in toks[1:]}
            elif toks[0] == "trans":
                p, bit, q = (int(t) for t in toks[1:])
                self.succ.setdefault((p, bit), set()).add(q)

    def accepts(self, word) -> bool:
        cur = {self.start}
        for bit in word:
            cur = {q for p in cur for q in self.succ.get((p, int(bit)), ())}
        return bool(cur & self.finals)

    def members(self, n: int) -> np.ndarray:
        """Every accepted length-n word, in lexicographic order."""
        words = all_words(n)
        return words[[self.accepts(w) for w in words]]


def all_words(n: int) -> np.ndarray:
    idx = np.arange(1 << n)
    return ((idx[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)


# ---------------------------------------------------------------------------
# counting


def popcount(word) -> int:
    return int(np.asarray(word, dtype=np.int64).sum())


def count_members(rng, n: int, t: int, count: int, exact: bool) -> np.ndarray:
    """Words with exactly t ones, or with a uniform count in [t, n] ones."""
    rows = np.zeros((count, n), dtype=np.uint8)
    for row in rows:
        ones = t if exact else int(rng.integers(t, n + 1))
        row[rng.permutation(n)[:ones]] = 1
    return rows


def parity_members(rng, n: int, count: int) -> np.ndarray:
    """Random words whose last bit makes the number of ones even."""
    rows = rng.integers(0, 2, (count, n), dtype=np.uint8)
    rows[:, -1] = rows[:, :-1].sum(axis=1) % 2
    return rows


# ---------------------------------------------------------------------------
# graphs: row-major v x v adjacency words, vertex 0 = s, vertex v-1 = t


def degrees_even(word) -> bool:
    m = _matrix(word)
    return bool(np.array_equal(m, m.T) and not np.diag(m).any()
                and not (m.sum(axis=1) % 2).any())


def reaches(word, undirected: bool) -> bool:
    """Breadth-first search from vertex 0; True when vertex v-1 is reached."""
    m = _matrix(word)
    if undirected and (not np.array_equal(m, m.T) or np.diag(m).any()):
        return False
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for w in np.flatnonzero(m[u]).tolist():
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(m) - 1 in seen


def _matrix(word) -> np.ndarray:
    word = np.asarray(word, dtype=np.uint8)
    v = int(round(len(word) ** 0.5))
    return word.reshape(v, v)


# The graph generators fix the number of triangles, path vertices and edges
# so that every seed asks for about the same work.


def cycles_members(rng, v: int, count: int) -> np.ndarray:
    """XORs of v random triangles: every vertex degree stays even."""
    out = np.zeros((count, v * v), dtype=np.uint8)
    for row in out:
        m = row.reshape(v, v)
        for _ in range(v):
            a, b, c = rng.choice(v, 3, replace=False)
            for x, y in ((a, b), (b, c), (a, c)):
                m[x, y] ^= 1
                m[y, x] ^= 1
    return out


def ustconn_members(rng, v: int, count: int) -> np.ndarray:
    """An s-t path through v/2 random vertices, plus v random edges."""
    out = np.zeros((count, v * v), dtype=np.uint8)
    for row in out:
        m = row.reshape(v, v)
        inner = rng.permutation(np.arange(1, v - 1))[: v // 2]
        path = [0, *inner.tolist(), v - 1]
        for x, y in (*zip(path, path[1:]), *rng.choice(v, (v, 2))):
            if x != y:
                m[x, y] = m[y, x] = 1
    return out


def unreach_members(rng, v: int, count: int) -> np.ndarray:
    """3v random arcs, minus those leaving a random half S with 0 in S, v-1 not."""
    out = np.zeros((count, v * v), dtype=np.uint8)
    for row in out:
        in_s = np.zeros(v, dtype=bool)
        in_s[0] = True
        in_s[1 + rng.permutation(v - 2)[: v // 2 - 1]] = True
        m = row.reshape(v, v)
        arcs = rng.choice(v, (3 * v, 2))
        m[arcs[:, 0], arcs[:, 1]] = 1
        m[np.ix_(in_s, ~in_s)] = 0
    return out


# ---------------------------------------------------------------------------
# NP verifiers: a seeded gate list, evaluated here by its own loop

NOT, AND, OR = 2, 3, 4


def random_verifier(rng, num_x: int, num_y: int, num_gates: int) -> list:
    """Gate list over inputs 0..num_x+num_y-1; the last gate is the output.

    The kinds cycle through AND, OR, NOT so every seed gives circuits of the
    same size; only the wiring is drawn from the seed.
    """
    gates = []
    for g in range(num_gates):
        kind = (AND, OR, NOT)[g % 3] if g < num_gates - 1 else AND
        avail = num_x + num_y + g
        a, b = rng.choice(avail, 2, replace=False)
        gates.append((kind, int(a), int(b)))
    return gates


def verifier_accepts(gates: list, num_x: int, num_y: int, x) -> bool:
    """Exists y with V(x, y) = 1, by brute force over every y."""
    for y in range(1 << num_y):
        vals = [int(b) for b in x] + [(y >> (num_y - 1 - i)) & 1 for i in range(num_y)]
        for kind, a, b in gates:
            if kind == NOT:
                vals.append(1 - vals[a])
            elif kind == AND:
                vals.append(vals[a] & vals[b])
            else:
                vals.append(vals[a] | vals[b])
        if vals[-1]:
            return True
    return False


def padded_member(gates: list, num_x: int, num_y: int, word) -> bool:
    """({1} . L . {0}) union {0^n, 1^n} for the verifier's language L."""
    word = [int(b) for b in word]
    if not any(word) or all(word):
        return True
    return word[0] == 1 and word[-1] == 0 and verifier_accepts(
        gates, num_x, num_y, word[1:-1])
