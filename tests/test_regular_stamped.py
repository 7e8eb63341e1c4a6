"""The stamped regular build against the per-node build.

``tests/regular_reference.py`` keeps the construction gate by gate: one
``lower_fields`` call per node and table, and ``chain_ands`` and
``patched_outputs`` walking the nodes one at a time.  The stamped build must
be the same circuit up to gate numbering (``tests/structure.py``) at every n
tested, also on small random automata.  The canonical form includes the
output labels, so the same range and the same outputs on every proof follow
and are not sampled.  Synthesis is a fixed number
of stamps plus one per binary-lifting round of the path ANDs, no
per-gate constructor call, and one label-table composition step per height
of the key tree, with no gap walk.
"""

import numpy as np
import pytest

from rangesynth import circuit, regular
from rangesynth.circuit import CONST, CircuitBuilder
from rangesynth.languages import Dfa, Nfa, parse_dfa
from rangesynth.regular import SynthesisError, synth_regular, synth_structured, unroll
from tests import regular_reference as reference
from tests.conftest import MOD3_TXT, NFA1_TXT, PARITY_TXT, TH2_TXT
from tests.structure import assert_same_circuit
from tests.test_lowering import MOD16_TXT

AUTOMATA = {"parity": PARITY_TXT, "th2": TH2_TXT, "nfa1": NFA1_TXT, "mod3": MOD3_TXT,
            "mod16": MOD16_TXT}


def _bp(name: str, n: int):
    """The instance's BP at n gaps: an automaton unrolled; Th2 unrolled with
    its variables permuted; parity unrolled with gap 3 (or the last) read
    through a rotated relation, so that no two gaps' tables can be shared."""
    if name in AUTOMATA:
        return unroll(parse_dfa(AUTOMATA[name]), n)
    if name == "permuted":
        bp = unroll(parse_dfa(TH2_TXT), n)
        bp.gap_var = tuple(np.random.default_rng(n).permutation(n) + 1)
        return bp
    bp = unroll(parse_dfa(PARITY_TXT), n)
    g = min(2, n - 1)
    bp.rel1[g] = np.roll(bp.rel1[g], 1, axis=1)
    return bp


INSTANCES = list(AUTOMATA) + ["permuted", "middle-gap"]
SMALL = [(name, n) for name in INSTANCES for n in range(1, 5)
         if not (name in ("th2", "permuted") and n == 1)]  # Th2 has no member of length 1
LARGE = [(name, n) for name in INSTANCES for n in list(range(5, 17)) + [64, 256, 1024]
         if name != "mod16" or n <= 64]


def _both(bp):
    return synth_structured(bp)[0], reference.synth_structured(bp)[0]


@pytest.mark.parametrize("name, n", SMALL, ids=[f"{a}-{n}" for a, n in SMALL])
def test_small_same_range(name, n):
    assert_same_circuit(*_both(_bp(name, n)))


@pytest.mark.parametrize("name, n", LARGE, ids=[f"{a}-{n}" for a, n in LARGE])
def test_large_same_outputs(name, n):
    assert_same_circuit(*_both(_bp(name, n)))


def _random_automaton(rng):
    """A DFA or NFA of one to four states; NFA states may lack successors."""
    w = int(rng.integers(1, 5))
    finals = frozenset(np.flatnonzero(rng.random(w) < 0.5).tolist())
    if rng.random() < 0.5:
        return Dfa(w, int(rng.integers(0, w)), finals,
                   tuple(tuple(int(q) for q in rng.integers(0, w, 2)) for _ in range(w)))
    return Nfa(w, int(rng.integers(0, w)), finals, tuple(
        tuple(frozenset(np.flatnonzero(rng.random(w) < 0.4).tolist()) for _ in range(2))
        for _ in range(w)))


@pytest.mark.parametrize("seed", range(4))
def test_random_automata(seed):
    """Small random automata, one-state and dead-state ones included, at
    n = 1 .. 7: the same structure, or both builds refusing an empty
    slice."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        automaton, n = _random_automaton(rng), int(rng.integers(1, 8))
        try:
            ref = reference.synth_regular(automaton, n)[0]
        except SynthesisError:
            with pytest.raises(SynthesisError):
                synth_regular(automaton, n)
            continue
        assert_same_circuit(synth_regular(automaton, n)[0], ref)


def test_synth_regular_is_the_structured_build():
    parity = parse_dfa(PARITY_TXT)
    new, ref = synth_regular(parity, 33)[0], reference.synth_regular(parity, 33)[0]
    assert_same_circuit(new, ref)


def _count_calls(monkeypatch, n: int) -> dict:
    """Calls made while synthesizing parity at n, the caches warm."""
    parity = parse_dfa(PARITY_TXT)
    synth_regular(parity, n)
    calls = dict.fromkeys(["stamp", "per_gate", "lower_fields", "table_to_subcircuit",
                           "_reach", "_lowest_path", "_compose"], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as mp:
        mp.setattr(CircuitBuilder, "stamp", counted("stamp", CircuitBuilder.stamp))
        for name in ("lower_fields", "table_to_subcircuit"):
            mp.setattr(circuit, name, counted(name, getattr(circuit, name)))
        for name in ("_reach", "_lowest_path", "_compose"):
            mp.setattr(regular, name, counted(name, getattr(regular, name)))
        for name in ("input", "not_", "and_", "or_", "xor", "and_tree", "or_tree"):
            mp.setattr(CircuitBuilder, name, counted("per_gate", getattr(CircuitBuilder, name)))
        gate = CircuitBuilder.gate

        def gate_counted(self, kind, a, b=0):  # const() makes its CONST here
            calls["per_gate"] += kind != CONST
            return gate(self, kind, a, b)

        mp.setattr(CircuitBuilder, "gate", gate_counted)
        synth_regular(parity, n)
    return calls


def test_stamp_calls_do_not_grow_with_n(monkeypatch):
    """The path ANDs lift in one stamp per power of two below the deepest
    internal node's chain length: 7 nodes at n = 64, 9 at n = 256 and 13
    at n = 4096, so 256 and 4096 take one stamp more than 64 and no other
    count moves."""
    counts = {n: _count_calls(monkeypatch, n) for n in (64, 256, 4096)}
    for got in counts.values():
        assert got["per_gate"] == got["lower_fields"] == got["table_to_subcircuit"] == 0
    assert counts[256]["stamp"] == counts[4096]["stamp"] == counts[64]["stamp"] + 1


def test_tables_compose_once_per_height(monkeypatch):
    """The label tables take one composition step per height of the key
    tree over (0, n+1], ceil(log2(n + 1)) of them, and no word walk."""
    for n in (256, 4096):
        got = _count_calls(monkeypatch, n)
        assert got["_reach"] == got["_lowest_path"] == 0
        assert got["_compose"] == n.bit_length() == int(np.ceil(np.log2(n + 1)))
