"""Circuit IR: evaluation, metrics, table lowering, serialization."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangesynth.circuit import (
    _CHUNK_BYTES,
    AND,
    CONST,
    INPUT,
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
    alternations_reference,
    depth_reference,
    eval_reference,
    parse_reference,
    validate_reference,
)


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
        b.set_outputs([b.xor_f(b.xor_f(x[0], x[1]), x[2]), b.and_f(x[0], x[2])])
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

    def test_rows_span_several_chunks(self):
        from rangesynth.counting import synth_exact_count

        c, _ = synth_exact_count(33, 5)
        per_chunk = 64 * max(1, _CHUNK_BYTES // (8 * c.num_gates))
        X = _random_rows(c, 2 * per_chunk + 77, 11)
        assert np.array_equal(eval_batch(c, X), eval_reference(c, X))

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
        b.set_outputs([b.xor_tree(x), b.or_(b.not_(x[0]), x[3]), b.const(1)])
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
# numbers no gate array can hold, non-numbers, kind names and keywords
_JUNK = ["-1", "-7", "0", "1", "2", "3", "99", "+1", "007", str(2**63), str(2**70),
         "1.5", "x", "INPUT", "CONST", "NOT", "AND", "OR", "XOR", "circuit", "outputs"]


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
    return "\n".join(" ".join(toks) for toks in lines) + "\n"


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
        if want is not None and want.num_inputs < 0:
            assert got is None  # the reference let a negative input count through
        else:
            assert got == want

    @pytest.mark.parametrize("text, line", [
        ("circuit -1 0 0\noutputs\n", 1),
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
