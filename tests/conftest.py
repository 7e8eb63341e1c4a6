"""Shared fixtures: reference automata, oracle helpers, toy verifiers."""

import itertools
import re

import numpy as np
import pytest

# ---------------------------------------------------------------------------
# acceptance reporting: one PASS/FAIL line per criterion, printed in the
# terminal summary so it survives pytest's output capture
# ---------------------------------------------------------------------------

_ACCEPTANCE = {}
_CRIT_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_([a-z0-9_]+)")


def pytest_runtest_logreport(report):
    m = _CRIT_RE.search(report.nodeid)
    if not m:
        return
    if report.when not in ("setup", "call"):
        return
    if report.when == "setup" and not report.failed:
        return
    num, label = int(m.group(1)), m.group(2).replace("_", "-")
    ok = report.passed and not report.skipped
    # keep the worst outcome seen for the criterion
    prev = _ACCEPTANCE.get(num)
    _ACCEPTANCE[num] = (label, ok if prev is None else (prev[1] and ok))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for num in sorted(_ACCEPTANCE):
        label, ok = _ACCEPTANCE[num]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"  criterion {num:2d} {label}: {status}")

from rangesynth.circuit import CircuitBuilder, eval_batch
from rangesynth.languages import parse_dfa
from rangesynth.npsys import VerifierCircuit, parse_verifier

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

# At least two ones (3-state counter saturating at 2).
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

# Contains at least one 1 -- genuine NFA: two 1-successors from the start.
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

# Structured BP whose gaps read x1, x3, x2, x4: the words x1 x2 x1 x2.
XX_BP = """\
gaps 4
states 2
start 0
final 0
var 1 1
var 2 3
var 3 2
var 4 4
edge 1 0 0 0
edge 1 0 1 1
edge 2 0 0 0
edge 2 1 1 0
edge 3 0 0 0
edge 3 0 1 1
edge 4 0 0 0
edge 4 1 1 0
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


@pytest.fixture(scope="session")
def parity():
    return parse_dfa(PARITY_TXT)


@pytest.fixture(scope="session")
def th2():
    return parse_dfa(TH2_TXT)


@pytest.fixture(scope="session")
def nfa1():
    return parse_dfa(NFA1_TXT)


@pytest.fixture(scope="session")
def mod3():
    return parse_dfa(MOD3_TXT)


def all_words(n):
    """All length-n bit tuples."""
    return itertools.product((0, 1), repeat=n)


def slice_set(accepts, n):
    """{bytes(w) : accepts(w)} over all length-n words -- independent oracle."""
    return {bytes(w) for w in all_words(n) if accepts(list(w))}


def undirected_words(n):
    """All symmetric zero-diagonal n x n adjacency words (row-major bytes)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        m = np.zeros((n, n), dtype=np.uint8)
        for (i, j), b in zip(pairs, bits):
            m[i, j] = m[j, i] = b
        yield bytes(m.reshape(-1))


def directed_words(n):
    for bits in itertools.product((0, 1), repeat=n * n):
        yield bytes(bits)


def exact_range(c, budget=1 << 27):
    """Exhaustive circuit range as a set of output byte-strings."""
    from rangesynth.circuit import circuit_range

    return {bytes(r) for r in circuit_range(c, budget=budget)}


def sampled_outputs(c, trials, seed=0):
    rng = np.random.default_rng(seed)
    proofs = rng.integers(0, 2, size=(trials, c.num_inputs), dtype=np.uint8)
    return eval_batch(c, proofs)


def random_proofs(m, honest, count=256, seed=0):
    """``count`` fixed-seed proofs of m bits: half uniform, half rows of
    ``honest`` with one to three bits flipped, so that the first
    inconsistency on a path lies at every depth of the interval tree."""
    rng = np.random.default_rng(seed)
    near = np.array(honest, dtype=np.uint8)[rng.integers(0, len(honest), count // 2)]
    for row in near:
        row[rng.integers(0, m, rng.integers(1, 4))] ^= 1
    uniform = rng.integers(0, 2, (count - len(near), m), dtype=np.uint8)
    return np.concatenate([near, uniform])


def contains11_verifier():
    """Toy NP verifier: x (3 bits) contains substring 11, y = 2-bit position.

    Accepts iff x_y = x_{y+1} = 1 for the position selected by y (positions
    0 and 1; y values 2,3 select position 1).
    """
    b = CircuitBuilder(5)
    x = [b.input(i) for i in range(3)]
    y = [b.input(i) for i in range(3, 5)]
    pos0 = b.and_(b.not_(y[0]), b.not_(y[1]))
    at0 = b.and_(x[0], x[1])
    at1 = b.and_(x[1], x[2])
    b.set_outputs([b.or_(b.and_(pos0, at0), b.and_(b.not_(pos0), at1))])
    return VerifierCircuit(b.build(), num_x=3, num_y=2)


def tiny_and_verifier():
    """2-bit inner verifier accepting only 11; y is one ignored bit."""
    b = CircuitBuilder(3)
    b.set_outputs([b.and_(b.input(0), b.input(1))])
    return VerifierCircuit(b.build(), num_x=2, num_y=1)


def const_verifier():
    """Verifier whose gates read CONST gates: x0 AND 1, ORed with 0, ANDed
    with y and with NOT 0, so it accepts the x with x0 = 1."""
    return parse_verifier("""\
circuit 3 10 1
split 2 1
0 INPUT 0
1 INPUT 1
2 INPUT 2
3 CONST 1
4 CONST 0
5 AND 0 3
6 OR 4 5
7 NOT 4
8 AND 6 2
9 AND 8 7
outputs 9
""")


def random_verifier(gates: int, seed: int, num_x: int = 3, num_y: int = 3):
    """A verifier of ``gates`` random NOT/AND/OR gates, output the last:
    each reads the gate before it, and an AND/OR also a random earlier gate
    or input, so the y bits none reads stay unread."""
    rng = np.random.default_rng(seed)
    b = CircuitBuilder(num_x + num_y)
    wires = b.inputs(0, num_x + num_y)
    for kind, u in zip(rng.integers(2, 5, gates).tolist(), rng.random(gates)):
        wires.append(b.gate(kind, wires[-1], wires[int(u * len(wires))]))
    b.set_outputs([wires[-1]])
    return VerifierCircuit(b.build(), num_x, num_y)
