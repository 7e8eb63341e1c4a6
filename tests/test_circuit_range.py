"""``circuit_range`` against the row-wise reference.

The range keys each chunk's output words as packed uint64s and unpacks only
the distinct ones; the reference unpacks every row and deduplicates with
``np.unique(axis=0)``.  Both must give byte-identical sets of 0/1 bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from rangesynth.circuit import CircuitBuilder, _all_packed, circuit_range
from rangesynth.counting import synth_exact_count, synth_threshold
from tests.conftest import contains11_verifier
from tests.graph_reference import xor_tree
from tests.membership_reference import circuit_range as reference_range
from tests.test_circuit import random_circuits


def test_zero_outputs():
    b = CircuitBuilder(3)
    b.set_outputs([])
    c = b.build()
    assert circuit_range(c) == reference_range(c) == {b""}


def test_zero_inputs():
    b = CircuitBuilder(0)
    b.set_outputs([b.const(1), b.const(0), b.const(1)])
    c = b.build()
    assert circuit_range(c) == reference_range(c) == {bytes([1, 0, 1])}


@pytest.mark.parametrize("n", [64, 65, 130])
def test_outputs_wider_than_a_key_word(n):
    # every output is a parity of a few inputs, so the words differ in each
    # of the key words, and output n - 1 alone separates the last one
    rng = np.random.default_rng(n)
    b = CircuitBuilder(9)
    x = [b.input(i) for i in range(9)]
    outs = [xor_tree(b, [x[i] for i in rng.choice(9, 3, replace=False)]) for _ in range(n - 1)]
    b.set_outputs(outs + [b.and_(x[0], x[8])])
    c = b.build()
    got = circuit_range(c)
    assert got == reference_range(c)
    assert all(len(w) == n for w in got) and len(got) > 64


def test_range_spread_over_chunks():
    # inputs 16 and 17 are fixed within each of the four chunks of 2^16 rows
    b = CircuitBuilder(18)
    x = [b.input(i) for i in range(18)]
    b.set_outputs([x[16], x[17], b.and_(x[0], x[1])])
    c = b.build()
    assert len(list(_all_packed(18))) == 4
    got = circuit_range(c)
    assert got == reference_range(c)
    assert got == {bytes(w) for w in np.ndindex(2, 2, 2)}


@pytest.mark.parametrize("c", [
    synth_threshold(4, 2)[0], synth_exact_count(4, 1)[0], contains11_verifier().circuit,
], ids=["threshold", "exact", "verifier"])
def test_synthesized_circuits(c):
    assert circuit_range(c) == reference_range(c)


@given(random_circuits(max_inputs=8))
@settings(max_examples=100, deadline=None)
def test_random_circuits(c):
    assert circuit_range(c) == reference_range(c)
