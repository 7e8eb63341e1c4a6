"""Circuit IR: evaluation, metrics, table lowering, serialization."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rangesynth import circuit
from rangesynth.circuit import (
    _CHUNK_BYTES,
    _all_packed,
    _eval_packed,
    _pack_rows,
    _packed_rows,
    _unpack_rows,
    AND,
    CONST,
    INPUT,
    MAX_INPUTS,
    NOT,
    OR,
    Circuit,
    CircuitBuilder,
    CircuitError,
    InputArityError,
    InputBitError,
    ParseError,
    StructureError,
    alternations,
    circuit_range,
    cone_sizes,
    depth,
    eval_batch,
    eval_circuit,
    gate_depths,
    metrics,
    parse,
    serialize,
    size,
    table_to_subcircuit,
)
from tests.circuit_reference import (
    all_inputs_reference,
    alternations_reference,
    cone_sizes_reference,
    depth_reference,
    eval_reference,
    parse_lines_reference,
    parse_reference,
    serialize_reference,
    validate_reference,
)
from tests.graph_reference import xor_tree


def _identity():
    b = CircuitBuilder(1)
    b.set_outputs([b.input(0)])
    return b.build()


class TestEval:
    def test_identity(self):
        c = _identity()
        assert eval_circuit(c, [1]) == [1]
        assert eval_circuit(c, [0]) == [0]

    def test_constant_three_outputs(self):
        b = CircuitBuilder(0)
        z = b.const(0)
        b.set_outputs([z, z, z])
        c = b.build()
        assert eval_circuit(c, []) == [0, 0, 0]

    def test_arity_error(self):
        c = _identity()
        with pytest.raises(InputArityError):
            eval_circuit(c, [1, 0])

    def test_batch_matches_single(self):
        b = CircuitBuilder(3)
        x = [b.input(i) for i in range(3)]
        b.set_outputs([b.xor(b.xor(x[0], x[1]), x[2]), b.and_(x[0], x[2])])
        c = b.build()
        rows = np.array(list(itertools.product((0, 1), repeat=3)), dtype=np.uint8)
        batch = eval_batch(c, rows)
        for row, out in zip(rows, batch):
            assert list(out) == eval_circuit(c, row)


class TestMetrics:
    def test_input_depth_zero(self):
        assert depth(_identity()) == 0

    def test_and_tree(self):
        b = CircuitBuilder(8)
        b.set_outputs([b.and_tree([b.input(i) for i in range(8)])])
        c = b.build()
        assert depth(c) == 3
        assert alternations(c) == 1
        assert cone_sizes(c) == [8]

    def test_not_between_ands_counts_as_switch(self):
        b = CircuitBuilder(3)
        inner = b.and_(b.input(0), b.input(1))
        b.set_outputs([b.and_(b.not_(inner), b.input(2))])
        c = b.build()
        # NOT-pushed view: AND over (OR of negated literals) -> 2 blocks
        assert alternations(c) == 2

    def test_size_counts_logic_gates_only(self):
        b = CircuitBuilder(2)
        b.set_outputs([b.or_(b.input(0), b.input(1))])
        assert size(b.build()) == 1

    def test_cone_correctness_random_agreement(self):
        from rangesynth.counting import synth_threshold

        c, _ = synth_threshold(6, 3)
        cones = cone_sizes(c)
        rng = np.random.default_rng(7)
        # flipping bits outside output 0's cone never changes output 0
        snap = metrics(c, with_cones=True)
        assert snap.cone_sizes == cones


class TestTableLowering:
    def test_all_false_is_const0(self):
        b = CircuitBuilder(2)
        g = table_to_subcircuit(b, [0, 0, 0, 0], [b.input(0), b.input(1)])
        b.set_outputs([g])
        c = b.build()
        for x in itertools.product((0, 1), repeat=2):
            assert eval_circuit(c, list(x)) == [0]

    def test_xor_table(self):
        b = CircuitBuilder(2)
        g = table_to_subcircuit(b, [0, 1, 1, 0], [b.input(0), b.input(1)])
        b.set_outputs([g])
        c = b.build()
        for x0, x1 in itertools.product((0, 1), repeat=2):
            assert eval_circuit(c, [x0, x1]) == [x0 ^ x1]

    def test_two_label_equality_table(self):
        # 4-bit table: wires (a0,a1,b0,b1) LSB-first, true iff a == b
        b = CircuitBuilder(4)
        wires = [b.input(i) for i in range(4)]
        table = [1 if (r & 3) == (r >> 2) else 0 for r in range(16)]
        b.set_outputs([table_to_subcircuit(b, table, wires)])
        c = b.build()
        for bits in itertools.product((0, 1), repeat=4):
            a = bits[0] | (bits[1] << 1)
            bb = bits[2] | (bits[3] << 1)
            assert eval_circuit(c, list(bits)) == [int(a == bb)]

    def test_zero_wires_emits_const(self):
        b = CircuitBuilder(0)
        g = table_to_subcircuit(b, [1], [])
        b.set_outputs([g])
        assert eval_circuit(b.build(), []) == [1]


class TestFolding:
    """Every gate constructor folds constant operands: a CONST operand never
    costs a gate, except the shared NOT of a wire it leaves negated."""

    OPS = {"not_": lambda a: 1 - a, "and_": lambda a, b: a & b,
           "or_": lambda a, b: a | b, "xor": lambda a, b: a ^ b}
    KINDS = {"not_": NOT, "and_": AND, "or_": OR, "xor": OR}

    @pytest.mark.parametrize("name", list(OPS))
    def test_fold_table(self, name):
        op = self.OPS[name]
        arity = 1 if name == "not_" else 2
        X = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8)
        for operands in itertools.product("01xy", repeat=arity):
            b = CircuitBuilder(2)
            w = {"0": b.const(0), "1": b.const(1), "x": b.input(0), "y": b.input(1)}
            n = len(b.kinds)
            got = getattr(b, name)(*(w[o] for o in operands))
            new = list(b.kinds[n:])
            if set(operands) & set("01"):
                assert new in ([], [NOT]), operands
            else:
                assert b.kinds[got] == self.KINDS[name] and got == len(b.kinds) - 1
            b.set_outputs([got])
            values = [[int(o) if o in "01" else row["xy".index(o)] for o in operands]
                      for row in X]
            assert eval_batch(b.build(), X)[:, 0].tolist() == [op(*v) for v in values]

    def test_trees(self):
        b = CircuitBuilder(2)
        zero, one, x, y = b.const(0), b.const(1), b.input(0), b.input(1)
        gates = len(b.kinds)
        assert b.and_tree([zero, x]) == zero
        assert b.and_tree([x, one, one]) == x
        assert b.and_tree([one, one]) == one
        assert b.and_tree([]) == one
        assert b.or_tree([x, one, y]) == one
        assert b.or_tree([zero, x, zero]) == x
        assert b.or_tree([zero]) == zero
        assert b.or_tree([]) == zero
        assert len(b.kinds) == gates  # no gate so far
        g = b.and_tree([x, one, y])
        assert (b.kinds[g], b.arg0[g], b.arg1[g]) == (AND, x, y)
        assert len(b.kinds) == gates + 1


@st.composite
def stamp_cases(draw):
    """A builder recipe and one to three random NOT/AND/OR templates over k
    leaf columns, with rows of leaves drawn from its wires: inputs, both
    CONST ids and a few logic gates, one of them a NOT.  Each CONST is the
    builder's shared ``const()`` or, so that the stamp may have to make it,
    a raw ``gate(CONST, v)``.  Either every template has one root or each
    has a tuple of zero to three."""
    m, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shared = draw(st.tuples(st.booleans(), st.booleans()))
    several = draw(st.booleans())
    templates = []
    for _ in range(draw(st.integers(1, 3))):
        gates = []
        for j in range(draw(st.integers(0, 8))):
            kind = draw(st.sampled_from([NOT, AND, OR]))
            ops = [draw(st.integers(-k, j - 1)) for _ in range(2)]
            gates.append((kind, ops[0], 0 if kind == NOT else ops[1]))
        root = st.integers(-k, len(gates) - 1)
        templates.append((tuple(gates), draw(st.tuples(*[root] * draw(st.integers(0, 3)))
                                              if several else root)))
    rows = draw(st.integers(0, 6))
    # wires: m inputs, CONST 0, CONST 1, NOT input 0, AND of inputs 0 and m-1
    leaves = draw(st.lists(st.lists(st.integers(0, m + 3), min_size=k, max_size=k),
                           min_size=rows, max_size=rows))
    which = draw(st.lists(st.integers(0, len(templates) - 1), min_size=rows,
                          max_size=rows))
    return (m, shared), templates, np.array(leaves, dtype=np.int64).reshape(rows, k), which


def _stamp_builder(m) -> CircuitBuilder:
    """m inputs, CONST 0, CONST 1, NOT input 0, AND of inputs 0 and m-1;
    with ``m = (m, shared)``, CONST v is a raw gate unless ``shared[v]``."""
    m, shared = m if isinstance(m, tuple) else (m, (True, True))
    b = CircuitBuilder(m)
    b.inputs(0, m)
    for v in (0, 1):
        b.const(v) if shared[v] else b.gate(CONST, v)
    b.not_(0)
    b.and_(0, m - 1)
    return b


def _scalar_row(b: CircuitBuilder, template, row):
    """One template row through the scalar constructors: its root wire, or
    the tuple of them."""
    gates, root = template
    wires = []

    def wire(op):
        return wires[op] if op >= 0 else int(row[-1 - op])

    for kind, a, c in gates:
        if kind == NOT:
            wires.append(b.not_(wire(a)))
        else:
            wires.append((b.and_ if kind == AND else b.or_)(wire(a), wire(c)))
    return tuple(map(wire, root)) if isinstance(root, tuple) else wire(root)


class TestStamp:
    """``stamp`` builds what the scalar constructors build row by row."""

    @given(stamp_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_rows(self, case):
        m, templates, leaves, which = case
        stamped, scalar, trial = _stamp_builder(m), _stamp_builder(m), _stamp_builder(m)
        first = len(stamped.kinds)
        roots = stamped.stamp(templates, leaves, which)
        # the constants the rows make come first in the stamp, CONST 0 first
        for t, row in zip(which, leaves):
            _scalar_row(trial, templates[t], row)
        made = sorted(trial._const_ids.keys() - scalar._const_ids.keys())
        assert [(stamped.kinds[g], stamped.arg0[g])
                for g in range(first, first + len(made))] == [(CONST, v) for v in made]
        for v in made:
            scalar.const(v)
        want = [_scalar_row(scalar, templates[t], row) for t, row in zip(which, leaves)]
        if roots.ndim > 1:  # each row's roots, then -1 up to the most any has
            assert roots.shape[1] == max(len(t[1]) for t in templates)
            for root, w in zip(roots, want):
                assert root[len(w):].tolist() == [-1] * (len(root) - len(w))
            roots = [g for root, w in zip(roots, want) for g in root[:len(w)]]
            want = [g for w in want for g in w]
        roots = list(roots)
        # the builders' NOTs of input 0 differ in sharing, not after build
        for b, outs in ((stamped, roots), (scalar, want)):
            b.set_outputs([int(g) for g in outs] + [b.not_(0)])
        assert stamped.build() == scalar.build()
        for root, w in zip(roots, want):  # folded rows name the same wire
            if scalar.kinds[w] < NOT:
                assert root == w

    @given(stamp_cases())
    @settings(max_examples=100, deadline=None)
    def test_runs_of_rows_match_one_run(self, case):
        """Rows laid out a few layout cells at a time give the very gates
        and roots of one run."""
        m, templates, leaves, which = case
        one, runs = _stamp_builder(m), _stamp_builder(m)
        want = one.stamp(templates, leaves, which)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(circuit, "_LAY_OUT_WIRES", 3)
            got = runs.stamp(templates, leaves, which)
        assert np.array_equal(got, want)
        assert (runs.kinds, runs.arg0, runs.arg1) == (one.kinds, one.arg0, one.arg1)

    def test_specializes_once_per_pattern(self, monkeypatch):
        """Rows whose X columns hold constants in a few placements cost one
        specialization of ``graphs._CUT_GATE`` per placement, not one per
        row; a second identical stamp replays nothing."""
        from rangesynth.graphs import _CUT_GATE
        rng = np.random.default_rng(0)
        leaves = rng.integers(0, 4, (1200, 3))  # wires 0, 1: inputs; 2, 3: CONST 0, 1
        leaves[:, 2] = rng.integers(0, 2, 1200)
        stamped, scalar = _stamp_builder(2), _stamp_builder(2)
        keys = {tuple(p) for p in (stamped.const_values(leaves) + 1).tolist() if any(p)}
        circuit._specialize.cache_clear()
        roots = stamped.stamp(_CUT_GATE, leaves)
        assert circuit._specialize.cache_info().misses == len(keys) == 8
        want = [_scalar_row(scalar, _CUT_GATE, row) for row in leaves]
        for root, w in zip(roots.tolist(), want):
            if scalar.kinds[w] < NOT:
                assert root == w
        for b, outs in ((stamped, roots.tolist()), (scalar, want)):
            b.set_outputs(outs)
        assert stamped.build() == scalar.build()
        calls = []
        for name in ("gate", "not_", "and_", "or_"):
            def counted(self, *args, _name=name, _scalar=getattr(CircuitBuilder, name)):
                calls.append(_name)
                return _scalar(self, *args)

            monkeypatch.setattr(CircuitBuilder, name, counted)
        stamped.stamp(_CUT_GATE, leaves)
        assert calls == [] and circuit._specialize.cache_info().misses == len(keys)

    def test_one_template(self):
        b = _stamp_builder(2)
        xor = ((NOT, -2, 0), (AND, -1, 0), (NOT, -1, 0), (AND, 2, -2), (OR, 1, 3)), 4
        roots = b.stamp(xor, [[0, 1], [1, 0], [0, 2], [3, 1]])  # 2, 3: CONST 0, 1
        assert roots[2] == 0  # x XOR 0 folds to x
        b.set_outputs(roots.tolist())
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        x, y = X.T
        assert eval_batch(b.build(), X).tolist() == np.stack(
            [x ^ y, x ^ y, x, 1 - y], axis=1).tolist()

    def test_rows_in_row_order(self):
        b = CircuitBuilder(3)
        b.inputs(0, 3)
        first = len(b.kinds)
        roots = b.stamp((((NOT, -1, 0), (AND, 0, -2)), 1), [[0, 1], [2, 0]])
        assert roots.tolist() == [first + 1, first + 3]
        assert list(b.kinds[first:]) == [NOT, AND, NOT, AND]
        assert list(b.arg0[first:]) == [0, first, 2, first + 2]
        assert list(b.arg1[first:]) == [0, 1, 0, 0]

    def test_empty_and_identity(self):
        b = CircuitBuilder(2)
        x = b.inputs(0, 2)
        assert b.stamp(((), -2), [x, x[::-1]]).tolist() == [1, 0]
        assert b.stamp((((NOT, -1, 0),), 0), np.zeros((0, 1), dtype=np.int64)).size == 0
        assert len(b.kinds) == 2

    def test_missing_constant_comes_first(self):
        b = CircuitBuilder(1)
        x, zero = b.input(0), b.const(0)
        roots = b.stamp((((NOT, -1, 0), (AND, 0, -2)), 1), [[zero, x]])
        assert roots.tolist() == [x]
        assert b.kinds[2] == CONST and b.arg0[2] == 1 and len(b.kinds) == 3

    def test_several_roots(self):
        """A root per output, CONST leaves folding as the scalar calls fold."""
        b = _stamp_builder(2)  # 2, 3: CONST 0, 1
        half_adder = ((NOT, -2, 0), (AND, -1, 0), (NOT, -1, 0), (AND, 2, -2), (OR, 1, 3),
                      (AND, -1, -2)), (4, 5, -1)
        roots = b.stamp(half_adder, [[0, 1], [0, 2], [3, 1], [2, 3]])
        assert roots.shape == (4, 3)
        assert roots[1].tolist() == [0, 2, 0]  # x + 0: the sum is x, the carry 0
        assert roots[3].tolist() == [3, 2, 2]  # 0 + 1
        b.set_outputs(roots[:3].ravel().tolist())
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        x, y = X.T
        assert eval_batch(b.build(), X).tolist() == np.stack(
            [x ^ y, x & y, x, x, 0 * x, x, 1 - y, y, 0 * x + 1], axis=1).tolist()

    def test_roots_padded_per_template(self):
        b = _stamp_builder(2)
        templates = [(((AND, -1, -2),), (0,)), (((OR, -1, -2), (NOT, 0, 0)), (0, 1, -2))]
        roots = b.stamp(templates, [[0, 1], [0, 1], [1, 0]], [1, 0, 0])
        first = len(b.kinds) - 4
        assert roots.tolist() == [[first, first + 1, 1], [first + 2, -1, -1],
                                  [first + 3, -1, -1]]

    def test_refuses_mixed_roots(self):
        b = _stamp_builder(2)
        with pytest.raises(CircuitError, match="root"):
            b.stamp([((), -1), ((), (-1,))], [[0], [0]], [0, 1])
        assert len(b.kinds) == 6

    @pytest.mark.parametrize("template, leaves", [
        ((((NOT, 0, 0),), 0), [[0]]),  # reads itself
        ((((AND, -1, -3),), 0), [[0, 0]]),  # leaf column 2 of 2
        ((((NOT, -1, 0),), 1), [[0]]),  # root past the gates
        ((((NOT, -1, 0),), (0, 1)), [[0]]),  # one of several roots past them
        ((((NOT, -1, 0),), (-2, 0)), [[0]]),  # one of several roots no leaf column
        ((((INPUT, 0, 0),), 0), [[0]]),  # not a logic gate
        ((((NOT, -1, 0),), 0), [[5]]),  # leaf is no wire
        ((((NOT, -1, 0),), 0), [[-1]]),
    ])
    def test_refuses(self, template, leaves):
        b = CircuitBuilder(1)
        b.input(0)
        with pytest.raises(StructureError):
            b.stamp(template, leaves)
        assert len(b.kinds) == 1

    @pytest.mark.parametrize("which", [[0], [0, 2], [-1, 0], [[0, 1]]])
    def test_refuses_which(self, which):
        """One template index per row of two, each naming one of two templates."""
        b = CircuitBuilder(1)
        b.input(0)
        with pytest.raises(CircuitError, match="which"):
            b.stamp([((), -1), ((), -1)], [[0], [0]], which)
        assert len(b.kinds) == 1


@st.composite
def tree_cases(draw):
    """AND or OR, and rows of one to six wires of a ``_stamp_builder``
    (inputs, both shared CONSTs, a NOT and an AND), padded with -1."""
    m, width = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(0, m + 3), min_size=1, max_size=width),
                         max_size=6))
    return m, draw(st.sampled_from([AND, OR])), width, rows


class TestTrees:
    """``trees`` builds what ``and_tree``/``or_tree`` build row by row."""

    @given(tree_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_trees(self, case):
        m, kind, width, rows = case
        wires = np.full((len(rows), width), -1, dtype=np.int64)
        for i, row in enumerate(rows):
            wires[i, :len(row)] = row
        stamped, scalar = _stamp_builder(m), _stamp_builder(m)
        roots = stamped.trees(kind, wires).tolist()
        want = [(scalar.and_tree if kind == AND else scalar.or_tree)(row) for row in rows]
        for root, w in zip(roots, want):  # a folded tree names the same wire
            if scalar.kinds[w] < NOT:
                assert root == w
        for b, outs in ((stamped, roots), (scalar, want)):
            b.set_outputs(outs + [b.not_(0)])
        assert stamped.build() == scalar.build()

    def test_refuses_wide_rows(self):
        b = _stamp_builder(2)
        with pytest.raises(CircuitError, match="31"):
            b.trees(AND, np.zeros((1, 32), dtype=np.int64))


class TestNots:
    @given(st.integers(1, 4), st.lists(st.integers(0, 7), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_matches_not_calls(self, m, picks):
        """The gates and wires of one ``not_`` call per wire, in order."""
        block, scalar = _stamp_builder(m), _stamp_builder(m)
        wires = [p % len(block.kinds) for p in picks]
        assert block.nots(np.array(wires, dtype=np.int64)).tolist() == [
            scalar.not_(w) for w in wires]
        assert (block.kinds, block.arg0, block.arg1) == (scalar.kinds, scalar.arg0, scalar.arg1)
        assert block._not_ids == scalar._not_ids


class TestInputs:
    @pytest.mark.parametrize("start, count", [(0, 0), (0, 5), (2, 3), (4, 1), (9, 0)])
    def test_same_gates_as_input_calls(self, start, count):
        blocks, singles = CircuitBuilder(5), CircuitBuilder(5)
        blocks.const(1), singles.const(1)
        assert blocks.inputs(start, count) == [singles.input(i)
                                                for i in range(start, start + count)]
        assert (blocks.kinds, blocks.arg0, blocks.arg1) == (
            singles.kinds, singles.arg0, singles.arg1)

    @pytest.mark.parametrize("start, count", [(-1, 2), (4, 2), (5, 1), (7, 3), (-3, 9)])
    def test_refuses_as_input_does(self, start, count):
        b = CircuitBuilder(5)
        with pytest.raises(StructureError) as block:
            b.inputs(start, count)
        assert len(b.kinds) == 0
        with pytest.raises(StructureError) as single:
            [b.input(i) for i in range(start, start + count)]
        assert str(block.value) == str(single.value)


class TestSerialization:
    def test_empty_circuit_two_lines(self):
        b = CircuitBuilder(0)
        text = serialize(b.build())
        assert len(text.strip("\n").split("\n")) == 2

    def test_identity_three_lines(self):
        text = serialize(_identity())
        assert len(text.strip("\n").split("\n")) == 3

    def test_roundtrip_synthesized(self, parity):
        from rangesynth.regular import synth_regular

        c, _ = synth_regular(parity, 3)
        c2 = parse(serialize(c))
        assert serialize(c2) == serialize(c)
        assert depth(c2) == depth(c)

    def test_forward_reference_rejected(self):
        with pytest.raises(StructureError):
            parse("circuit 0 2 1\n0 NOT 1\n1 CONST 0\noutputs 0\n")

    def test_header_mismatch(self):
        with pytest.raises(ParseError):
            parse("circuit 1 2 1\n0 INPUT 0\noutputs 0\n")

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            parse("circuit 0 1 1\n0 XOR 0 0\noutputs 0\n")

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=40), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_random_circuits(self, ops, seed):
        rng = np.random.default_rng(seed)
        b = CircuitBuilder(3)
        wires = [b.input(i) for i in range(3)]
        for op in ops:
            i = int(rng.integers(0, len(wires)))
            j = int(rng.integers(0, len(wires)))
            if op == 0:
                wires.append(b.not_(wires[i]))
            elif op in (1, 2, 3):
                wires.append(b.and_(wires[i], wires[j]))
            else:
                wires.append(b.or_(wires[i], wires[j]))
        b.set_outputs(wires[-2:])
        c = b.build()
        assert serialize(parse(serialize(c))) == serialize(c)


@st.composite
def random_circuits(draw, max_inputs=4, max_gates=40):
    """Raw gate arrays, without the builder's sharing of INPUT/CONST/NOT."""
    m = draw(st.integers(0, max_inputs))
    n = draw(st.integers(0, max_gates))
    kinds, a0, a1 = [], [], []
    for i in range(n):
        choices = [CONST] + ([INPUT] if m else []) + ([NOT, AND, OR] if i else [])
        k = draw(st.sampled_from(choices))
        if k == INPUT:
            a, b = draw(st.integers(0, m - 1)), 0
        elif k == CONST:
            a, b = draw(st.integers(0, 1)), 0
        elif k == NOT:
            a, b = draw(st.integers(0, i - 1)), 0
        else:
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
        kinds.append(k)
        a0.append(a)
        a1.append(b)
    outputs = draw(st.lists(st.integers(0, n - 1), max_size=6)) if n else []
    return Circuit(m, kinds, a0, a1, outputs)


def _random_rows(c, rows, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, (rows, c.num_inputs), dtype=np.uint8)


class TestDifferential:
    """The level-schedule kernels against the per-gate reference loops."""

    @given(random_circuits(), st.integers(0, 200), st.integers(0, 2**31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_random_circuits(self, c, rows, seed):
        X = _random_rows(c, rows, seed)
        want = eval_reference(c, X)
        got = eval_batch(c, X)
        assert got.dtype == np.uint8
        assert got.shape == (rows, len(c.outputs))
        assert np.array_equal(got, want)
        for row, out in zip(X[:4], want):
            assert eval_circuit(c, row) == out.tolist()
        assert depth(c) == depth_reference(c)
        assert alternations(c) == alternations_reference(c)

    @given(random_circuits(max_inputs=12, max_gates=120))
    @settings(max_examples=100, deadline=None)
    def test_cone_sizes(self, c):
        """Random circuits, most with gates that no output reads."""
        assert cone_sizes(c) == cone_sizes_reference(c)

    def test_rows_span_several_chunks(self, monkeypatch):
        import rangesynth.circuit as circuit_module
        from rangesynth.counting import synth_exact_count

        c, _ = synth_exact_count(33, 5)
        per_chunk = 64 * max(1, _CHUNK_BYTES // (8 * c.num_gates))
        X = _random_rows(c, 2 * per_chunk + 77, 11)
        calls = []

        def counted(op):
            def run(*args, **kwargs):
                calls.append(op)
                return op(*args, **kwargs)
            return run

        monkeypatch.setattr(circuit_module, "_BINARY_OPS", {
            kind: counted(op) for kind, op in circuit_module._BINARY_OPS.items()})
        assert np.array_equal(eval_batch(c, X), eval_reference(c, X))
        # every chunk takes one call per AND or OR level group
        binary_groups = sum(kind >= AND for kind, _, _ in c._schedule().groups)
        assert len(calls) % binary_groups == 0
        assert len(calls) // binary_groups == 3

    def test_zero_inputs(self):
        c = Circuit(0, [CONST, CONST, NOT, AND, OR], [1, 0, 0, 0, 0], [0, 0, 0, 2, 1],
                    [4, 3, 2])
        X = np.zeros((5, 0), dtype=np.uint8)
        assert np.array_equal(eval_batch(c, X), eval_reference(c, X))
        assert eval_circuit(c, []) == [1, 0, 0]
        assert depth(c) == depth_reference(c) == 2
        assert alternations(c) == alternations_reference(c)

    def test_constants_only(self):
        c = Circuit(2, [CONST, CONST], [0, 1], [0, 0], [1, 0, 1])
        X = _random_rows(c, 9, 0)
        assert eval_batch(c, X).tolist() == [[1, 0, 1]] * 9
        assert depth(c) == 0 and alternations(c) == 0

    def test_no_outputs(self):
        c = Circuit(2, [INPUT, INPUT, AND], [0, 1, 0], [0, 0, 1], [])
        assert eval_batch(c, _random_rows(c, 10, 1)).shape == (10, 0)
        assert eval_circuit(c, [1, 0]) == []
        assert depth(c) == 0 and alternations(c) == 0

    def test_empty_circuit(self):
        c = Circuit(0, [], [], [], [])
        assert eval_batch(c, np.zeros((3, 0), dtype=np.uint8)).shape == (3, 0)
        assert depth(c) == 0 and alternations(c) == 0

    def test_zero_rows(self):
        b = CircuitBuilder(3)
        b.set_outputs([b.and_(b.input(0), b.input(2)), b.input(1)])
        out = eval_batch(b.build(), np.zeros((0, 3), dtype=np.uint8))
        assert out.shape == (0, 2) and out.dtype == np.uint8

    @pytest.mark.parametrize("rows", [1, 7, 9, 63, 65, 130])
    def test_rows_not_a_multiple_of_8(self, rows):
        b = CircuitBuilder(4)
        x = [b.input(i) for i in range(4)]
        b.set_outputs([xor_tree(b, x), b.or_(b.not_(x[0]), x[3]), b.const(1)])
        c = b.build()
        X = _random_rows(c, rows, rows)
        assert np.array_equal(eval_batch(c, X), eval_reference(c, X))

    def test_long_chain(self):
        # 20k levels of alternating AND / OR / NOT: the schedule has one
        # group per level, and every sweep must stay linear in the gates
        m, n = 3, 20_000
        kinds, a0, a1 = [INPUT] * m, list(range(m)), [0] * m
        for i in range(m, n):
            k = (NOT, AND, OR)[i % 3]
            kinds.append(k)
            a0.append(i - 1)
            a1.append(i % m if k != NOT else 0)
        c = Circuit(m, kinds, a0, a1, [n - 1, n // 2])
        X = _random_rows(c, 70, 3)
        assert np.array_equal(eval_batch(c, X), eval_reference(c, X))
        assert depth(c) == depth_reference(c) == n - m
        assert alternations(c) == alternations_reference(c)

    def test_gate_depths_per_gate(self):
        from rangesynth.counting import synth_threshold

        c, _ = synth_threshold(6, 3)
        d = gate_depths(c)
        assert len(d) == c.num_gates
        for g in range(0, c.num_gates, 7):
            sub = Circuit(c.num_inputs, c.kinds, c.arg0, c.arg1, [g])
            assert d[g] == depth_reference(sub)


_SHIFTS = np.arange(64, dtype=np.uint64)


def _slice_rows(X, rng=None):
    """Bit-slice rows by arithmetic: bit r % 64 of word [i, r // 64] is
    X[r, i].  The bits past the last row are zero, or random from ``rng``."""
    r, m = X.shape
    words = -(-r // 64)
    pad = np.zeros((64 * words, m), dtype=np.uint64)
    pad[:r] = X
    if rng is not None:
        pad[r:] = rng.integers(0, 2, (64 * words - r, m))
    return (pad.reshape(words, 64, m) << _SHIFTS[None, :, None]).sum(axis=1).T


def _rows_from_slices(P, r):
    """The first r rows of bit-sliced words P, by shifting each bit out."""
    bits = (P[:, :, None] >> _SHIFTS) & np.uint64(1)
    return bits.reshape(len(P), 64 * P.shape[1])[:, :r].T.astype(np.uint8)


class TestPacked:
    """The bit-sliced entry and its pack / unpack against row-wise references."""

    @given(random_circuits(), st.sampled_from([1, 63, 64, 65, (1 << 14) + 3]),
           st.integers(0, 2**31 - 1))
    @example(Circuit(0, [CONST, CONST, NOT, AND, OR], [1, 0, 0, 0, 0], [0, 0, 0, 2, 1],
                     [4, 3, 2]), 65, 0)  # no inputs, CONST gates
    @example(Circuit(2, [INPUT, INPUT, AND], [0, 1, 0], [0, 0, 1], []), 63, 1)  # no outputs
    @settings(max_examples=60, deadline=None)
    def test_random_circuits(self, c, rows, seed):
        X = _random_rows(c, rows, seed)
        want = eval_reference(c, X)
        assert np.array_equal(eval_batch(c, X), want)
        rng = np.random.default_rng(seed)
        P = _slice_rows(X, rng)  # garbage past the last row must not matter
        Y = _eval_packed(c, P)
        assert Y.shape == (len(c.outputs), -(-rows // 64)) and Y.dtype == np.uint64
        assert np.array_equal(_rows_from_slices(Y, rows), want)
        assert np.array_equal(_unpack_rows(Y, rows), want)
        packed = _pack_rows(X)
        assert np.array_equal(_rows_from_slices(packed, rows), X)
        assert np.array_equal(packed, _slice_rows(X))
        pick = rng.integers(0, rows, 5)
        assert np.array_equal(_packed_rows(P, pick), X[pick])

    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 1000])
    def test_small_blocks(self, rows, monkeypatch):
        # at 1 KB the pack and unpack blocks hold 256 rows of 4 bits and the
        # evaluation chunks 6 words, so every loop takes several steps
        import rangesynth.circuit as circuit_module

        monkeypatch.setattr(circuit_module, "_CHUNK_BYTES", 1024)
        monkeypatch.setattr(circuit_module, "_BLOCK_BYTES", 1024)
        b = CircuitBuilder(4)
        x = [b.input(i) for i in range(4)]
        b.set_outputs([xor_tree(b, x), b.or_(b.not_(x[0]), x[3]), x[1], x[2]])
        c = b.build()
        X = _random_rows(c, rows, rows)
        packed = _pack_rows(X)
        assert np.array_equal(packed, _slice_rows(X))
        assert np.array_equal(_unpack_rows(packed, rows), X)
        assert np.array_equal(eval_batch(c, X), eval_reference(c, X))

    @pytest.mark.parametrize("m", range(13))
    def test_all_packed_matches_all_inputs(self, m):
        b = CircuitBuilder(m)
        x = [b.input(i) for i in range(m)]
        b.set_outputs([xor_tree(b, x), b.and_tree(x[::3]), b.const(1)] + x[::-2])
        c = b.build()
        want = np.concatenate(list(all_inputs_reference(m)))
        for words in (1 << 10, 3):
            chunks = list(_all_packed(m, words))
            assert sum(rows for _, rows in chunks) == 1 << m
            got = np.concatenate([_rows_from_slices(P, rows) for P, rows in chunks])
            assert np.array_equal(got, want)
            outs = np.concatenate([_unpack_rows(_eval_packed(c, P), rows)
                                   for P, rows in chunks])
            assert np.array_equal(outs, eval_batch(c, want))
        assert circuit_range(c) == {row.tobytes() for row in eval_batch(c, want)}


class TestBadBits:
    """Non-binary input bits fail at the evaluator boundary."""

    def test_eval_batch(self):
        c = _identity()
        with pytest.raises(InputBitError):
            eval_batch(c, np.array([[0], [2]], dtype=np.uint8))
        with pytest.raises(InputBitError):
            eval_batch(c, [[-1]])
        with pytest.raises(InputBitError):
            eval_batch(c, np.array([[0.5]]))

    @pytest.mark.parametrize("x", [[2], "2", "x", np.array([3], dtype=np.uint8)])
    def test_eval_circuit(self, x):
        with pytest.raises(InputBitError) as info:
            eval_circuit(_identity(), x)
        assert isinstance(info.value, CircuitError)

    def test_bool_input_accepted(self):
        assert eval_batch(_identity(), np.array([[True], [False]])).tolist() == [[1], [0]]


class TestStructure:
    """Circuit(...) checks every structural rule and names the first bad gate."""

    @pytest.mark.parametrize("args, gate", [
        pytest.param((-1, [], [], [], []), None, id="negative-num-inputs"),
        pytest.param((MAX_INPUTS + 1, [], [], [], []), None, id="too-many-inputs"),
        pytest.param((10**20, [CONST], [1], [0], [0]), None, id="absurd-num-inputs"),
        pytest.param((1, [INPUT], [0, 0], [0], []), None, id="unequal-lengths"),
        pytest.param((1, [INPUT, INPUT], [0, 1], [0, 0], []), 1, id="input-index-high"),
        pytest.param((1, [INPUT], [-1], [0], []), 0, id="input-index-negative"),
        pytest.param((0, [CONST, CONST], [1, 2], [0, 0], []), 1, id="const-not-a-bit"),
        pytest.param((1, [INPUT, NOT], [0, 1], [0, 0], []), 1, id="not-reads-itself"),
        pytest.param((1, [INPUT, NOT], [0, -1], [0, 0], []), 1, id="operand-negative"),
        pytest.param((1, [INPUT, AND], [0, 0], [0, 2], []), 1, id="and-reads-later"),
        pytest.param((1, [INPUT, OR], [0, 1], [0, 0], []), 1, id="or-reads-itself"),
        pytest.param((1, [INPUT, 5], [0, 0], [0, 0], []), 1, id="unknown-kind"),
        pytest.param((1, [INPUT, NOT], [0, 0], [0, 0], [2]), None, id="output-missing"),
        pytest.param((1, [INPUT, NOT], [0, 0], [0, 0], [-1]), None, id="output-negative"),
        pytest.param((1, [INPUT, NOT, CONST, NOT], [0, 2, 3, 9], [0] * 4, [9]), 1,
                     id="first-of-several"),
    ])
    def test_fault_kinds(self, args, gate):
        with pytest.raises(StructureError) as info:
            Circuit(*args)
        assert info.value.gate == gate
        with pytest.raises(StructureError) as ref:
            validate_reference(Circuit(*args, _validated=True))
        assert ref.value.gate == gate

    @pytest.mark.parametrize("outputs", [[-1], [3], [99], [0, 1, -1]])
    def test_build_refuses_missing_outputs(self, outputs):
        """build() checks the outputs it hands to a circuit it does not
        validate, so it cannot make a circuit that parse() would refuse."""
        b = CircuitBuilder(1)
        b.set_outputs([b.not_(b.input(0))] + outputs)
        with pytest.raises(StructureError, match=f"output id {outputs[-1]} "):
            b.build()

    def test_widest_proof_accepted(self):
        c = Circuit(MAX_INPUTS, [INPUT, CONST], [MAX_INPUTS - 1, 1], [0, 0], [0, 1])
        assert c.num_inputs == MAX_INPUTS
        assert parse(serialize(c)) == c

    @given(random_circuits(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, c, data):
        m, kinds = c.num_inputs, list(c.kinds)
        a0, a1, outputs = list(c.arg0), list(c.arg1), list(c.outputs)
        n = len(kinds)
        if data.draw(st.booleans(), "negative num_inputs"):
            m = data.draw(st.integers(-3, -1))
        for _ in range(data.draw(st.integers(0, 3))):
            if not n:
                break
            i = data.draw(st.integers(0, n - 1))
            field = data.draw(st.sampled_from([kinds, a0, a1]))
            field[i] = data.draw(st.integers(-2, 6) if field is kinds
                                 else st.integers(-3, n + 3))
        if data.draw(st.booleans(), "bad output"):
            outputs.append(data.draw(st.sampled_from([-1, n, n + 5])))
        try:
            validate_reference(Circuit(m, kinds, a0, a1, outputs, _validated=True))
            want = None
        except StructureError as exc:
            want = exc.gate
            with pytest.raises(StructureError) as info:
                Circuit(m, kinds, a0, a1, outputs)
            assert info.value.gate == want
            return
        assert Circuit(m, kinds, a0, a1, outputs).num_gates == n


# tokens a corrupted circuit text may gain: numbers in and out of range,
# numbers no gate array can hold, numbers int() reads in a form serialize
# never writes (19 digits that fit, a non-ASCII digit), non-numbers, kind
# names and keywords
_JUNK = ["-1", "-7", "0", "1", "2", "3", "99", "+1", "007", str(2**63), str(2**70),
         str(2**63 - 1), "0" * 18 + "1", "\u0663", "1_0", "1.5", "x", "1O", "I0",
         "INPUT", "CONST", "NOT", "AND", "OR", "XOR", "circuit", "outputs"]
# spacing and line ends str.split and str.splitlines accept besides the
# single spaces and newlines serialize writes; "" joins two lines
_SPACES = ["  ", "\t", " \t ", "\x0b", "\x0c", "\u3000"]
_ENDS = ["\r\n", "\r", "\n\n", "\x0c", "\x1e", "\x85", "\u2028", ""]


@st.composite
def mutated_texts(draw):
    """Serialized random circuits, corrupted at the token level."""
    c = draw(random_circuits(max_gates=12))
    lines = [line.split() for line in serialize(c).splitlines()]
    if draw(st.integers(0, 3)) == 0:  # break one of the header counts
        k = draw(st.integers(1, 3))
        lines[0][k] = str(int(lines[0][k]) + draw(st.sampled_from([-2, -1, 1])))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i]
        j = draw(st.integers(0, len(toks)))
        op = draw(st.sampled_from(["number"] * 4 + ["kind"] * 2 + [
            "drop", "duplicate", "insert", "drop-line", "duplicate-line"]))
        if op == "drop" and j < len(toks):
            del toks[j]
        elif op == "duplicate" and j < len(toks):
            toks.insert(j, toks[j])
        elif op == "insert":
            toks.insert(j, draw(st.sampled_from(_JUNK)))
        elif op == "number" and j < len(toks):
            toks[j] = str(draw(st.integers(-3, c.num_gates + 3)))
        elif op == "kind" and 0 < i < len(lines) - 1 and len(toks) > 1:
            toks[1] = draw(st.sampled_from(["INPUT", "CONST", "NOT", "AND", "OR"]))
        elif op == "drop-line" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate-line":
            lines.insert(i, list(toks))
    spaces, ends = [" "] * len(lines), ["\n"] * len(lines)
    for _ in range(draw(st.integers(0, 2))):  # then respace the text
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["space", "leading", "trailing", "end"]))
        if op == "space":
            spaces[i] = draw(st.sampled_from(_SPACES))
        elif op == "leading":
            lines[i] = [""] + lines[i]
        elif op == "trailing":
            lines[i] = lines[i] + [""]
        else:
            ends[i] = draw(st.sampled_from(_ENDS))
    return "".join(sp.join(toks) + end
                   for toks, sp, end in zip(lines, spaces, ends))


@st.composite
def wide_circuits(draw):
    """Valid circuits of up to 2,000 gates drawn as whole arrays, over up to
    MAX_INPUTS inputs, so that ids and input indices run to many digits."""
    m = draw(st.sampled_from([0, 1, 3, 1000, MAX_INPUTS]))
    g = draw(st.integers(0, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = rng.integers(INPUT if m else CONST, OR + 1, g)
    kinds[:1] = CONST  # gate 0 has no earlier gate to read
    earlier = (rng.random((2, g)) * np.arange(g)).astype(np.int64)
    a0 = np.where(kinds == INPUT, rng.integers(0, max(m, 1), g),
                  np.where(kinds == CONST, rng.integers(0, 2, g), earlier[0]))
    a0[np.flatnonzero(kinds == INPUT)[-1:]] = m - 1  # the widest index
    a1 = np.where(kinds >= AND, earlier[1], 0)
    outputs = draw(st.lists(st.integers(0, g - 1), max_size=6)) if g else []
    return Circuit(m, kinds.tolist(), a0.tolist(), a1.tolist(), outputs)


def _parsed(fn, text):
    """What a parser makes of ``text``: its circuit, or its error's class
    and message (which names the line)."""
    try:
        return fn(text)
    except CircuitError as exc:
        return type(exc), str(exc)


class TestTextDifferential:
    """The whole-array serialize and parse against the line-by-line ones."""

    @given(st.one_of(random_circuits(), wide_circuits()))
    @settings(max_examples=200, deadline=None)
    @example(Circuit(0, [], [], [], []))
    @example(Circuit(MAX_INPUTS, [INPUT, CONST], [MAX_INPUTS - 1, 1], [0, 0], []))
    def test_serialize_matches_reference(self, c):
        text = serialize(c)
        assert text == serialize_reference(c)
        assert parse(text) == c

    @given(mutated_texts())
    @settings(max_examples=500, deadline=None)
    def test_parse_matches_reference(self, text):
        assert _parsed(parse, text) == _parsed(parse_lines_reference, text)

    @pytest.mark.parametrize("text", [
        "circuit 1 2 1\n0 INPUT 0\n1\tNOT 0\noutputs 1\n",
        "circuit 1 2 1\n0 INPUT 0\n1  NOT 0\noutputs 1\n",
        "circuit 1 2 1\n0 INPUT 0 \n1 NOT 0\noutputs 1\n",
        "circuit 1 2 1\n 0 INPUT 0\n1 NOT 0\noutputs 1\n",
        "circuit 1 2 1\r\n0 INPUT 0\r\n1 NOT 0\r\noutputs 1\r\n",
        "circuit 1 2 1\n0 INPUT 0\n\n1 NOT 0\noutputs 1\n",
        "circuit 1 2 1\n0 INPUT 0\x0c1 NOT 0\noutputs 1\n",
        "circuit 1 2 1\n0 INPUT 0\n1 NOT \u0660\noutputs 1\n",
        "circuit 1 2 1\n0 INPUT 0\n1 NOT +0\noutputs 1\n",
        "circuit 1 2 1\n0 INPUT 0\n001 NOT 000\noutputs 1\n",
        "circuit 1 2 1\n0 INPUT 0\n1 NOT 0000000000000000000\noutputs 1\n",
        f"circuit 1 2 1\n0 INPUT 0\n1 NOT {2**63}\noutputs 1\n",
        "circuit 1 2 1\n0 INPUT 0\n1 NOT 1O\noutputs 1\n",
        "circuit 1 2 1\n0 INPUT 0\n1 AND 0 \noutputs 1\n",
        "circuit 1 2 1\n0 INPUT 0\n1 NOR 0\noutputs 1\n",
        "circuit 1 2 1\n0 INPUT 0\n1 NOT 0 0\noutputs 1\n",
        "circuit 1 2 1\n0 INPUT 0\n2 NOT 0\noutputs 1\n",
        "circuit 1 2 1\n0 INPUT 0\n1 NOT 0\noutputs 1",
        "circuit 1 2 1\n0 INPUT 0\n1 NOT 0\noutputs 1\n\n",
        "circuit 1 2 1\r0 INPUT 0\n1 NOT 0\noutputs 1\n",
        "circuit 1 0 0\n\n",
        "circuit -1 0 0\n",
    ])
    def test_noncanonical_text_matches_reference(self, text):
        assert _parsed(parse, text) == _parsed(parse_lines_reference, text)


class TestParseBoundary:
    """parse checks only the syntax; Circuit checks the structure."""

    @given(mutated_texts())
    @settings(max_examples=500, deadline=None)
    def test_mutated_texts_match_reference(self, text):
        try:
            want = parse_reference(text)
        except Exception:  # the reference may also overflow an int64 array
            want = None
        try:
            got = parse(text)
        except CircuitError:  # anything else fails the test
            got = None
        if want is not None and not 0 <= want.num_inputs <= MAX_INPUTS:
            assert got is None  # the reference lets any input count through
        else:
            assert got == want

    @pytest.mark.parametrize("text, line", [
        ("circuit -1 0 0\noutputs\n", 1),
        (f"circuit {MAX_INPUTS + 1} 0 0\noutputs\n", 1),
        ("circuit 100000000000000000000 1 1\n0 CONST 1\noutputs 0\n", 1),
        ("circuit 1 2 1\n0 INPUT 1\n1 NOT 0\noutputs 1\n", 2),
        ("circuit 1 2 1\n0 CONST 2\n1 NOT 0\noutputs 1\n", 2),
        ("circuit 1 2 1\n0 INPUT 0\n1 AND 0 1\noutputs 1\n", 3),
        ("circuit 1 2 1\n0 INPUT 0\n1 NOT 0\noutputs 2\n", 4),
    ])
    def test_structural_fault_names_its_line(self, text, line):
        with pytest.raises(StructureError, match=f"^line {line}: "):
            parse(text)

    @pytest.mark.parametrize("text, line", [
        ("circuit 1 1 1\n0 INPUT\noutputs 0\n", 2),
        ("circuit 1 1 1\n0 AND 0\noutputs 0\n", 2),
        ("circuit 1 1 1\n1 INPUT 0\noutputs 0\n", 2),
        ("circuit 1 1 1\n0 INPUT 0x\noutputs 0\n", 2),
        (f"circuit 1 2 1\n0 INPUT 0\n1 NOT {2**63}\noutputs 1\n", 3),
        ("circuit 1 1 2\n0 INPUT 0\noutputs 0\n", 3),
        ("circuit 1 1 1\n0 INPUT 0\nout 0\n", 3),
        ("circuit 1 1\n0 INPUT 0\noutputs 0\n", 1),
    ])
    def test_syntax_fault_names_its_line(self, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: "):
            parse(text)
