"""The stamped NP systems and selector combinators against their per-gate builds.

``tests/table_reference.py`` keeps the builds that lowered one table per
verifier gate, choice or output column and replayed it gate by gate.  The
stamped builds must give the same circuits up to gate numbering
(``tests/structure.py``): random verifiers, plain and padded, both variants,
and the combinators over many choices, words and columns.  A verifier with
CONST gates is the one exception: the stamped build folds the constants the
replay left for its AND/OR gates to read, so it may only be smaller and
shallower, with the same range.  Each build makes a number of stamps that
does not grow with the verifier, the choices, the words or the columns.
"""

import numpy as np
import pytest

from rangesynth.circuit import CircuitBuilder, depth, size
from rangesynth.combinators import concat_finite, finite_language, union
from rangesynth.counting import synth_exact_count
from rangesynth.npsys import pad_language, synth_co_sac, synth_sac
from tests import table_reference as reference
from tests.conftest import (const_verifier, contains11_verifier, exact_range, random_verifier,
                            tiny_and_verifier)
from tests.structure import assert_same_circuit

SYNTHS = {"cosac": (synth_co_sac, reference.synth_co_sac),
          "sac": (synth_sac, reference.synth_sac)}
VERIFIERS = {"contains11": contains11_verifier, "tiny_and": tiny_and_verifier}
VERIFIERS.update({f"random-{g}-{s}": lambda g=g, s=s: random_verifier(g, s)
                  for g in (9, 40, 300, 2000) for s in range(3)})


@pytest.mark.parametrize("name", list(VERIFIERS))
def test_np_systems_match_per_gate_build(name):
    v = VERIFIERS[name]()
    for new, ref in SYNTHS.values():
        assert_same_circuit(new(v), ref(v))
    n = v.num_x + 2
    for new, ref in zip(pad_language(v, n), reference.pad_language(v, n)):
        assert_same_circuit(new, ref)


@pytest.mark.parametrize("variant", list(SYNTHS))
def test_const_verifier_folds_its_constants(variant):
    """The replay leaves gates reading a CONST; the stamped build folds
    them into fewer gates, no deeper, with the same range."""
    new, ref = (synth(const_verifier()) for synth in SYNTHS[variant])
    assert size(new) < size(ref) and depth(new) <= depth(ref)
    assert exact_range(new) == exact_range(ref)


def _words(count: int, length: int, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    return ["".join(map(str, w)) for w in rng.integers(0, 2, (count, length)).tolist()]


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_union_matches_per_gate_build(k):
    circuits = [synth_exact_count(4, j % 5)[0] for j in range(k)]
    assert_same_circuit(union(circuits), reference.union(circuits))


@pytest.mark.parametrize("count, length", [(1, 3), (2, 1), (3, 4), (7, 5), (16, 6), (40, 9)])
@pytest.mark.parametrize("side", ["left", "right"])
def test_concat_finite_matches_per_gate_build(count, length, side):
    inner = synth_exact_count(3, 1)[0]
    words = _words(count, length, seed=count)
    assert_same_circuit(concat_finite(words, inner, side),
                        reference.concat_finite(words, inner, side))


@pytest.mark.parametrize("count, length", [(1, 4), (2, 3), (3, 6), (17, 8), (100, 10),
                                           (1000, 12)])
def test_finite_language_matches_per_gate_build(count, length):
    words = _words(count, length, seed=count)
    assert_same_circuit(finite_language(words), reference.finite_language(words))


def _stamps(monkeypatch, build) -> int:
    """``CircuitBuilder.stamp`` calls made by ``build()``."""
    calls = []
    stamp = CircuitBuilder.stamp

    def counted(self, *args, **kwargs):
        calls.append(1)
        return stamp(self, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(CircuitBuilder, "stamp", counted)
        build()
    return len(calls)


def test_stamp_calls_do_not_grow(monkeypatch):
    """One stamp checks every verifier gate and one lowers every selector
    table, however many gates, choices, words or columns there are."""
    for synth in (synth_co_sac, synth_sac):
        assert {_stamps(monkeypatch, lambda: synth(random_verifier(g, 0)))
                for g in (9, 300, 2000)} == {1}
    unions = [[synth_exact_count(4, j % 5)[0] for j in range(k)] for k in (2, 9)]
    assert {_stamps(monkeypatch, lambda: union(cs)) for cs in unions} == {1}
    inner = synth_exact_count(3, 1)[0]
    cases = [(2, 3), (9, 3), (100, 12)]
    assert {_stamps(monkeypatch, lambda: concat_finite(_words(*c), inner))
            for c in cases} == {1}
    assert {_stamps(monkeypatch, lambda: finite_language(_words(*c))) for c in cases} == {1}


def test_structure_check_names_where_circuits_part():
    """Gate numbering and operand order do not matter; a changed gate is
    reported at its level."""
    def build(swap: bool, kind_or: bool):
        b = CircuitBuilder(3)
        x = b.inputs(0, 3)
        pair = [lambda: b.and_(x[1], x[0]), lambda: b.or_(x[2], b.not_(x[0]))]
        g, h = (p() for p in (pair[::-1] if swap else pair))
        if swap:
            g, h = h, g
        b.set_outputs([(b.or_ if kind_or else b.and_)(h, g)])
        return b.build()

    assert_same_circuit(build(False, True), build(True, True))
    with pytest.raises(AssertionError, match="level 3 parts at gate 0"):
        assert_same_circuit(build(False, True), build(True, False))
