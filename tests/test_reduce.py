"""The builder's reduction pass against the build that keeps every gate.

``CircuitBuilder.build`` merges structurally equal gates and drops logic gates
that no output reads (``circuit._reduce``); ``append_circuit`` splices whole
arrays.  ``tests/circuit_reference.py`` keeps the non-reducing build and the
per-gate ``append_circuit``.  A reduced circuit must give the same outputs
with no more depth or alternations, hold no two gates with one key and no
unread logic gate, pass the structural check, and reduce to itself.  The
first merge round keys the gates in chunks (``circuit._KEY_CHUNK``); chunks of
a few gates must give the very circuit one chunk gives.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangesynth import circuit, combinators
from rangesynth.circuit import (
    AND, CONST, INPUT, NOT, OR, Circuit, CircuitBuilder, CircuitError, _reduce,
    alternations, depth, eval_batch, size, table_to_subcircuit,
)
from rangesynth.cli import FAMILIES
from rangesynth.counting import synth_exact_count, synth_threshold
from rangesynth.languages import Dfa, member_batch, parse_dfa
from rangesynth.regular import SynthesisError, parse_bp, synth_regular
from tests.circuit_reference import (
    append_circuit_reference, build_reference, eval_reference,
    validate_reference,
)
from tests.conftest import (
    MOD3_TXT, NFA1_TXT, PARITY_TXT, TH2_TXT, XX_BP, const_verifier, contains11_verifier,
    exact_range, random_proofs,
)

EXHAUSTIVE_INPUTS = 16  # compare whole ranges up to this proof width
SMALL_CHUNK = 4  # gates keyed at a time in the split first merge round


@contextmanager
def unreduced():
    """Builders keep every emitted gate and inline circuits gate by gate."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CircuitBuilder, "build", build_reference)
        mp.setattr(CircuitBuilder, "append_circuit", append_circuit_reference)
        yield


@contextmanager
def key_chunk(gates: int):
    """The first merge round keys about this many gates at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(circuit, "_KEY_CHUNK", gates)
        yield


def build_chunked(b: CircuitBuilder) -> Circuit:
    """``b.build()`` with the first merge round split into small chunks."""
    with key_chunk(SMALL_CHUNK):
        return b.build()


def _key(c, g):
    k, a, b = c.kinds[g], c.arg0[g], c.arg1[g]
    return (k, min(a, b), max(a, b)) if k >= AND else (k, a)


def assert_reduced(c):
    """No two gates share a key, every logic gate is read, the check passes
    and the pass leaves the circuit as it is."""
    keys = [_key(c, g) for g in range(c.num_gates)]
    assert len(set(keys)) == len(keys)
    read = set(c.outputs)
    for g in range(c.num_gates):
        if c.kinds[g] >= NOT:
            read.add(c.arg0[g])
        if c.kinds[g] >= AND:
            read.add(c.arg1[g])
    assert all(g in read for g in range(c.num_gates) if c.kinds[g] >= NOT)
    validate_reference(c)
    Circuit(c.num_inputs, c.kinds, c.arg0, c.arg1, c.outputs)  # validates
    again = _reduce(c.kinds, c.arg0, c.arg1, c.outputs)
    assert again == (c.kinds, c.arg0, c.arg1, c.outputs)


def assert_same_function(ref, red, honest=(), seed=0):
    """Same outputs on 256 proofs (all proofs when few enough), and the
    reduced circuit no deeper and with no more alternations."""
    assert red.num_inputs == ref.num_inputs
    assert len(red.outputs) == len(ref.outputs)
    m = ref.num_inputs
    if m <= EXHAUSTIVE_INPUTS:
        X = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(np.uint8)
    elif len(honest):
        X = random_proofs(m, honest, seed=seed)
    else:
        X = np.random.default_rng(seed).integers(0, 2, (256, m), dtype=np.uint8)
    assert np.array_equal(eval_batch(red, X), eval_batch(ref, X))
    assert depth(red) <= depth(ref)
    assert alternations(red) <= alternations(ref)
    assert size(red) <= size(ref)


# ---------------------------------------------------------------------------
# random builder programs


@st.composite
def programs(draw):
    """(num_inputs, steps, output picks) for :func:`_run`."""
    m = draw(st.integers(0, 4))
    step = st.tuples(st.integers(0, 7), st.integers(0, 999), st.integers(0, 999))
    steps = draw(st.lists(step, max_size=40))
    outs = draw(st.lists(st.integers(0, 999), max_size=6))
    return m, steps, outs


def _run(m, steps, outs) -> CircuitBuilder:
    """Replay a program: inputs, constants, NOT/AND/OR on earlier wires,
    re-emitted gates (duplicates, commuted operands, unshared NOT, INPUT and
    CONST), the folding constructors; unpicked gates are dead.  AND/OR, and
    NOT and the chains on some draws, go through ``gate`` so that constant
    and repeated operands reach the pass."""
    b = CircuitBuilder(m)
    w = []  # every gate emitted so far
    for op, x, y in steps:
        if op == 0 and m:
            w.append(b.input(x % m))
        elif op == 1 or not w:
            w.append(b.const(x & 1))
        elif op == 2:
            g = w[x % len(w)]
            w.append(b.gate(NOT, g) if y & 1 else b.not_(g))
        elif op in (3, 4):
            w.append(b.gate(AND if op == 3 else OR, w[x % len(w)], w[y % len(w)]))
        elif op == 5:  # the same gate again, operands swapped
            g = w[x % len(w)]
            k, a0, a1 = b.kinds[g], b.arg0[g], b.arg1[g]
            w.append(b.gate(k, a1, a0) if k >= AND else b.gate(k, a0))
        elif op == 6:  # a chain of gates on one wire
            g = w[x % len(w)]
            for _ in range(y % 4):
                g = (b.gate(AND, g, b.gate(NOT, g)) if y & 4
                     else b.and_(g, b.not_(g)))
            w.append(g)
        else:
            fold = (b.and_, b.or_, b.xor)[y % 3]
            w.append(fold(w[x % len(w)], w[(x + y) % len(w)]))
    b.set_outputs([w[o % len(w)] for o in outs] if w else [])
    return b


@settings(max_examples=300, deadline=None)
@given(programs())
def test_random_programs_match_reference(program):
    b = _run(*program)
    ref = build_reference(b)
    red = b.build()
    assert_reduced(red)
    assert_same_function(ref, red)
    X = np.random.default_rng(1).integers(0, 2, (64, ref.num_inputs), dtype=np.uint8)
    assert np.array_equal(eval_batch(red, X), eval_reference(ref, X))
    assert build_chunked(b) == red


def test_commuted_chains_merge_to_one():
    b = CircuitBuilder(3)
    x = [b.input(i) for i in range(3)]
    left = b.and_(b.or_(x[0], x[1]), x[2])
    right = b.and_(x[2], b.or_(x[1], x[0]))  # the same gate, twice removed
    b.set_outputs([b.not_(left), b.not_(right)])
    c = b.build()
    assert size(c) == 3 and c.outputs[0] == c.outputs[1]
    assert_reduced(c)


def test_dead_chains_go_and_outputs_stay():
    b = CircuitBuilder(2)
    x, y = b.input(0), b.input(1)
    g = b.and_(x, y)
    for _ in range(5):  # a chain nothing reads
        g = b.or_(g, b.not_(g))
    keep = b.or_(x, y)
    b.set_outputs([keep, keep, x, b.const(1)])
    c = b.build()
    assert size(c) == 1
    assert [c.kinds[o] for o in c.outputs] == [OR, OR, INPUT, CONST]
    assert_reduced(c)


# ---------------------------------------------------------------------------
# edge cases


def test_empty_builder():
    c = CircuitBuilder(0).build()
    assert c.num_gates == 0 and c.outputs == []
    assert_reduced(c)


def test_constants_only():
    b = CircuitBuilder(0)
    zero, one = b.const(0), b.const(1)
    b.gate(CONST, 1)  # an unshared duplicate
    b.set_outputs([one, zero, one])
    c = b.build()
    assert c.num_gates == 2 and eval_batch(c, np.zeros((1, 0), np.uint8)).tolist() == [[1, 0, 1]]
    assert_reduced(c)


def test_zero_wire_table():
    b = CircuitBuilder(0)
    b.set_outputs([table_to_subcircuit(b, [1], []), table_to_subcircuit(b, [0], [])])
    c = b.build()
    assert size(c) == 0
    assert eval_batch(c, np.zeros((1, 0), np.uint8)).tolist() == [[1, 0]]
    assert_reduced(c)


@pytest.mark.parametrize("chunk", [None, SMALL_CHUNK])
def test_input_index_beyond_the_gate_count(chunk):
    b = CircuitBuilder(1000)
    x, again = b.input(999), b.input(999)
    b.set_outputs([b.not_(x), b.not_(again), b.and_(x, b.input(998))])
    c = build_chunked(b) if chunk else b.build()
    assert c.num_gates == 4 and c.outputs[0] == c.outputs[1]
    X = np.zeros((2, 1000), np.uint8)
    X[1, 998:] = 1
    assert eval_batch(c, X).tolist() == [[1, 1, 0], [0, 0, 1]]
    assert_reduced(c)


def test_keys_that_overflow_are_refused():
    """Keys pack kind and two operands into an int64; ids too large for
    that are refused, not wrapped."""
    b = CircuitBuilder(1 << 31)
    b.set_outputs([b.or_(b.input((1 << 31) - 1), b.input(0))])
    with pytest.raises(CircuitError, match="overflow the merge key"):
        b.build()


# ---------------------------------------------------------------------------
# every family synthesizer


def _family_cases():
    v = contains11_verifier()
    return [
        ("regular", (parse_dfa(PARITY_TXT), 4), ["1010", "0000"]),
        ("regular", (parse_dfa(TH2_TXT), 3), ["110", "111"]),
        ("regular", (parse_dfa(TH2_TXT), 8), ["11000000", "10101011"]),
        ("regular", (parse_dfa(NFA1_TXT), 4), ["0100", "1111"]),
        ("regular", (parse_dfa(MOD3_TXT), 3), []),
        ("structured", (parse_bp(XX_BP),), ["0101"]),
        ("threshold", (6, 3), []),
        ("threshold", (12, 5), ["111110000000", "101010101010"]),
        ("exact", (6, 3), []),
        ("exact", (12, 5), ["111110000000", "010101010001"]),
        ("cycles", (4,), []),
        ("ustconn", (4,), []),
        ("unreach", (4,), []),
        ("cosac", (v,), []),
        ("sac", (v,), []),
        ("cosac", (const_verifier(),), []),
        ("sac", (const_verifier(),), []),
    ]


@pytest.mark.parametrize("kind,params,members", _family_cases(),
                         ids=[f"{k}-{i}" for i, (k, _, _) in enumerate(_family_cases())])
def test_family_matches_reference(kind, params, members):
    fam = FAMILIES[kind]
    with unreduced():
        ref, ref_layout = fam.synth(*params)
    # the builder keeps no INPUT map, so each proof bit is asked for once
    indexes = [ref.arg0[g] for g in range(ref.num_gates) if ref.kinds[g] == INPUT]
    assert len(indexes) == len(set(indexes))
    red, layout = fam.synth(*params)
    assert_reduced(red)
    with key_chunk(SMALL_CHUNK):
        assert fam.synth(*params)[0] == red
    witness = fam.witness(*params)
    honest = np.array([witness(w) for w in members], dtype=np.uint8)
    assert_same_function(ref, red, honest)
    if ref.num_inputs <= EXHAUSTIVE_INPUTS:
        assert exact_range(red) == exact_range(ref)
    if layout is not None:
        assert layout.to_text() == ref_layout.to_text()


def _reads_a_constant(c) -> bool:
    kinds, a0, a1 = c._arrays()
    const = kinds == CONST
    return bool(const[a0[kinds >= NOT]].any() or const[a1[kinds >= AND]].any())


@pytest.mark.parametrize("kind,params,members", _family_cases(),
                         ids=[f"{k}-{i}" for i, (k, _, _) in enumerate(_family_cases())])
def test_family_gates_read_no_constant(kind, params, members):
    """The constructors fold every constant, so even the unreduced build
    holds no NOT/AND/OR gate that reads a CONST gate."""
    with unreduced():
        c = FAMILIES[kind].synth(*params)[0]
    assert not _reads_a_constant(c)


def test_every_family_is_covered():
    assert {kind for kind, _, _ in _family_cases()} | {"padded"} == set(FAMILIES)


def test_operand_order_does_not_depend_on_merges():
    """Every kept AND/OR lists its smaller operand first, also in a circuit
    where nothing merged or died, so its ``.circ`` text does not hinge on
    unrelated merges elsewhere in the circuit."""
    seen = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        delta = tuple(tuple(int(q) for q in rng.integers(0, 5, 2)) for _ in range(5))
        finals = frozenset(np.flatnonzero(rng.random(5) < 0.4).tolist())
        try:
            c, _ = synth_regular(Dfa(5, int(rng.integers(0, 5)), finals, delta), 1)
        except SynthesisError:  # no member of length 1
            continue
        kinds, a0, a1 = c._arrays()
        binary = kinds >= AND
        assert (a0[binary] < a1[binary]).all(), seed
        seen += 1
    assert seen > 100


@pytest.mark.parametrize("variant", ["co-sac", "sac"])
def test_padded_proofs_narrower_same_language(variant):
    """The padded verifier is reduced first, so its proofs carry one claimed
    bit per remaining verifier gate; outputs stay in the language and every
    member still has a witness (co-SAC)."""
    v = contains11_verifier()
    fam = FAMILIES["padded"]
    with unreduced():
        ref = fam.synth(v, 5, variant=variant)[0]
    red = fam.synth(v, 5, variant=variant)[0]
    assert_reduced(red)
    assert red.num_inputs < ref.num_inputs
    assert depth(red) <= depth(ref) and alternations(red) <= alternations(ref)
    spec, n = fam.spec(v, 5)
    words = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)
    members = words[member_batch(spec, words)]
    X = np.random.default_rng(0).integers(0, 2, (512, red.num_inputs), dtype=np.uint8)
    if variant == "co-sac":
        witness = fam.witness(v, 5)
        honest = np.array([witness(w) for w in members], dtype=np.uint8)
        assert np.array_equal(eval_batch(red, honest), members)
        X = np.concatenate([X, random_proofs(red.num_inputs, honest)])
    assert member_batch(spec, eval_batch(red, X)).all()


# ---------------------------------------------------------------------------
# combinators and the array splice


def _e31():
    return synth_exact_count(3, 1)[0]


def _e33():
    return synth_exact_count(3, 3)[0]


def _t42():
    return synth_threshold(4, 2)[0]


# each builds its operands too, so that they are reduced or not with it
COMBINATIONS = {
    "union": lambda: combinators.union([_e31(), _e33(), _e31()]),
    "concat_left": lambda: combinators.concat_finite(["01", "11"], _e31()),
    "concat_right": lambda: combinators.concat_finite(["0"], _t42(), "right"),
    "reverse": lambda: combinators.reverse(_t42()),
    "morphism": lambda: combinators.morphism("01", "11", _e31()),
    "inverse_morphism": lambda: combinators.inverse_morphism(
        "0", "1", combinators.morphism("0", "1", _t42())),
    "inverse_morphism_free": lambda: combinators.inverse_morphism("1", "1", _e33()),
    "upclose": lambda: combinators.upclose(_e31()),
    "finite": lambda: combinators.finite_language(["0110", "1111", "0001"]),
    "nested": lambda: combinators.upclose(combinators.reverse(
        combinators.union([_e31(), _e33()]))),
}


@pytest.mark.parametrize("name", list(COMBINATIONS))
def test_combinator_matches_reference(name):
    with unreduced():
        ref = COMBINATIONS[name]()
    red = COMBINATIONS[name]()
    assert_reduced(red)
    assert_same_function(ref, red)
    assert exact_range(red) == exact_range(ref)


@pytest.mark.parametrize("name", [n for n in COMBINATIONS if n != "upclose"])
def test_combinator_gates_read_no_constant(name):
    """As for the families; ``upclose`` alone ORs a mask bit into every
    output with a real gate, constant outputs too."""
    with unreduced():
        c = COMBINATIONS[name]()
    assert not _reads_a_constant(c)


@pytest.mark.parametrize("name", ["union", "reverse", "upclose", "nested"])
def test_splice_matches_per_gate_append(name):
    """The array splice against the per-gate loop, before and after the
    reduction: same outputs, and the same reduced size, depth and
    alternations."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CircuitBuilder, "build", build_reference)
        spliced = COMBINATIONS[name]()
        mp.setattr(CircuitBuilder, "append_circuit", append_circuit_reference)
        looped = COMBINATIONS[name]()
    assert_same_function(looped, spliced)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CircuitBuilder, "append_circuit", append_circuit_reference)
        looped_red = COMBINATIONS[name]()
    red = COMBINATIONS[name]()
    assert_same_function(looped_red, red)
    assert (size(red), depth(red), alternations(red)) == (
        size(looped_red), depth(looped_red), alternations(looped_red))
