"""The block-by-block level scan and the radix-sorted schedule key against the
frontier walk over fan-out lists and the int64 key they replaced."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangesynth import circuit
from rangesynth.circuit import (AND, CONST, INPUT, NOT, OR, Circuit, StructureError,
                                gate_depths)
from tests.circuit_reference import level_schedule_reference
from tests.test_circuit import random_circuits, wide_circuits
from tests.test_golden import CASES, _circuit

B = circuit._LEVEL_BLOCK


def assert_same_schedule(c: Circuit):
    got, want = c._schedule(), level_schedule_reference(*c._arrays())
    assert np.array_equal(gate_depths(c), want.level)
    assert got.level.dtype == want.level.dtype
    for name in ("level", "slot", "src0", "src1"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got[4:] == want[4:]  # inputs_end, consts_end, groups


def _random_logic(g: int, m: int, seed: int, reach=None) -> Circuit:
    """m inputs, then g - m logic gates reading earlier gates: the first
    operand ``reach`` ids back at most (a chain when 1), the second anywhere."""
    rng = np.random.default_rng(seed)
    ids = np.arange(m, g)
    kinds = np.concatenate([np.full(m, INPUT), rng.integers(NOT, OR + 1, g - m)])
    back = 1 + (rng.integers(0, reach, g - m) if reach else
                (rng.random(g - m) * ids).astype(np.int64))
    a0 = np.concatenate([np.arange(m), np.maximum(ids - back, 0)])
    far = (rng.random(g - m) * ids).astype(np.int64)
    a1 = np.concatenate([np.zeros(m, np.int64), np.where(kinds[m:] >= AND, far, 0)])
    return Circuit(m, kinds.tolist(), a0.tolist(), a1.tolist(), [g - 1, g // 2])


@st.composite
def block_circuits(draw):
    """Up to 3B + 5 gates whose operands sit mostly a few ids back, so that
    chains run within blocks and across their edges, and some gates are read
    by no output."""
    g = draw(st.integers(1, 3 * B + 5))
    m = draw(st.integers(1, min(g, 8)))
    reach = draw(st.sampled_from([1, 3, 40, None]))
    return _random_logic(g, m, draw(st.integers(0, 2**32 - 1)), reach)


class TestAgainstFrontierWalk:
    @settings(max_examples=200, deadline=None)
    @given(random_circuits(max_gates=60))
    def test_random(self, c):
        assert_same_schedule(c)

    @settings(max_examples=60, deadline=None)
    @given(wide_circuits())
    def test_wide(self, c):
        assert_same_schedule(c)

    @settings(max_examples=25, deadline=None)
    @given(block_circuits())
    def test_across_blocks(self, c):
        assert_same_schedule(c)

    @settings(max_examples=100, deadline=None)
    @given(random_circuits(max_gates=60), st.sampled_from([1, 2, 3, 7]))
    def test_tiny_blocks(self, c, block):
        with mock.patch.object(circuit, "_LEVEL_BLOCK", block):
            assert_same_schedule(c)

    @pytest.mark.parametrize("name", list(CASES))
    def test_golden_cases(self, name):
        assert_same_schedule(_circuit(name))


class TestBlockEdges:
    @pytest.mark.parametrize("g", [B - 1, B, B + 1, 3 * B + 5])
    @pytest.mark.parametrize("reach", [1, 5, None])
    def test_sizes(self, g, reach):
        assert_same_schedule(_random_logic(g, 3, g, reach))

    def test_chain_crosses_blocks(self):
        c = _random_logic(2 * B + 10, 1, 0, reach=1)
        assert_same_schedule(c)
        assert gate_depths(c).max() == 2 * B + 9

    def test_late_block_reads_first_block_only(self):
        m, g = 4, 3 * B
        rng = np.random.default_rng(1)
        c = _random_logic(g, m, 2, reach=1)
        kinds, a0, a1 = (np.array(x) for x in (c.kinds, c.arg0, c.arg1))
        late = np.arange(2 * B, g)
        kinds[late] = rng.integers(AND, OR + 1, B)
        a0[late], a1[late] = rng.integers(m, B, (2, B))
        c = Circuit(m, kinds.tolist(), a0.tolist(), a1.tolist(), [g - 1, B - 1])
        assert_same_schedule(c)
        assert gate_depths(c)[late].max() <= B

    def test_no_logic_gates(self):
        assert_same_schedule(Circuit(3, [INPUT, CONST, INPUT, CONST, INPUT],
                                     [0, 1, 2, 0, 1], [0] * 5, [4, 1]))

    def test_later_operand_is_refused(self):
        # an unvalidated circuit whose gate reads a later one: no endless scan
        c = Circuit(1, [INPUT, AND, NOT], [0, 0, 1], [0, 2, 0], [1], _validated=True)
        with pytest.raises(StructureError, match="gate 1: operands not earlier"):
            c._schedule()

    def test_empty(self):
        c = Circuit(0, [], [], [], [])
        assert_same_schedule(c)
        assert c._schedule().groups == []


class TestSortKey:
    def test_both_key_paths(self):
        # the long chain's (level, kind) keys pass 2^15 and sort as int32;
        # a small circuit's sort as int16
        big = _random_logic(20_000, 3, 0, reach=1)
        small = _random_logic(B + 1, 3, 0, reach=1)
        assert 5 * gate_depths(big).max() + 4 >= 1 << 15
        assert 5 * gate_depths(small).max() + 4 < 1 << 15
        assert_same_schedule(big)
        assert_same_schedule(small)

    def test_levels_need_no_sort(self):
        def refuse(*args, **kwargs):
            raise AssertionError("sorted while levelling")

        c = _random_logic(2 * B + 7, 3, 5, reach=40)
        want = level_schedule_reference(*c._arrays()).level
        with mock.patch.object(np, "argsort", refuse), \
                mock.patch.object(np, "unique", refuse):
            assert np.array_equal(circuit._gate_levels(*c._arrays()), want)
