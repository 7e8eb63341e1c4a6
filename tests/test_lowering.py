"""Truth-table lowering against the minterm reference.

``table_to_subcircuit`` emits a prime-implicant cover of each table, with
slot-aligned AND trees (``circuit._cover``, ``circuit._slot_and_tree``);
``tests/circuit_reference.py`` keeps the lowering that writes one full
minterm per true row.  A covered table must compute the same function with
no more depth, and no more gates when built alone.  Every family synthesis
must come out no larger, no deeper and with no more alternations than the
same synthesis under the reference lowering, with the same range; the
reference goes in through ``circuit._template``, the template every stamped
table is made from, and the mod-16 counter must come out smaller
without it.  The gates emitted must not depend on hash order or on the cover
cache.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangesynth import circuit
from rangesynth.circuit import (
    AND, NOT, OR, CircuitBuilder, alternations, depth, eval_batch, lower_fields,
    serialize, size, table_to_subcircuit,
)
from rangesynth.cli import FAMILIES
from rangesynth.languages import parse_dfa
from tests.circuit_reference import table_to_subcircuit_reference, table_to_subcircuit_replay
from tests.conftest import PARITY_TXT, contains11_verifier, exact_range
from tests.test_reduce import EXHAUSTIVE_INPUTS, _family_cases

ROOT = Path(__file__).parents[1]


def _lower(lowering, table, k: int):
    """A circuit of k inputs whose one output is ``table`` over them."""
    b = CircuitBuilder(k)
    wires = [b.input(i) for i in range(k)]
    b.set_outputs([lowering(b, table, wires)])
    return b.build()


def _all_rows(k: int) -> np.ndarray:
    return ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.uint8)


def assert_cover_no_worse(table, k: int):
    new = _lower(table_to_subcircuit, table, k)
    ref = _lower(table_to_subcircuit_reference, table, k)
    assert eval_batch(new, _all_rows(k))[:, 0].tolist() == [int(bool(t)) for t in table]
    assert depth(new) <= depth(ref)
    assert size(new) <= size(ref)
    return new, ref


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(st.booleans(), min_size=1 << k,
                                             max_size=1 << k))))
def test_random_tables_match_reference(case):
    k, table = case
    assert_cover_no_worse(table, k)


@st.composite
def cube_unions(draw):
    """(k, table): the union of a few random cubes over k wires, the tables
    that have large implicants."""
    k = draw(st.integers(1, 8))
    full = (1 << k) - 1
    cubes = draw(st.lists(st.tuples(st.integers(0, full), st.integers(0, full)),
                          min_size=1, max_size=6))
    rows = np.arange(1 << k)
    table = np.zeros(1 << k, dtype=bool)
    for mask, value in cubes:
        table |= (rows & mask) == (value & mask)
    return k, table.astype(int).tolist()


@settings(max_examples=150, deadline=None)
@given(cube_unions())
def test_random_cube_unions_match_reference(case):
    k, table = case
    assert_cover_no_worse(table, k)


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_all_xor_table_is_its_minterms(k):
    """Parity has no two true rows one bit apart: nothing merges, and the
    cover is the reference's minterm DNF gate for gate."""
    table = [bin(r).count("1") & 1 for r in range(1 << k)]
    new, ref = assert_cover_no_worse(table, k)
    assert (size(new), depth(new), alternations(new)) == (
        size(ref), depth(ref), alternations(ref))


@pytest.mark.parametrize("k,slot,value", [(1, 0, 1), (3, 1, 1), (4, 3, 0), (8, 5, 0)])
def test_single_literal_table_is_a_wire(k, slot, value):
    """A table that is one literal emits no AND or OR gate: the wire itself,
    or one NOT of it."""
    table = [(r >> slot & 1) == value for r in range(1 << k)]
    new, _ = assert_cover_no_worse(table, k)
    kinds = [new.kinds[g] for g in range(new.num_gates)]
    assert AND not in kinds and OR not in kinds
    assert kinds.count(NOT) == (value == 0)


@pytest.mark.parametrize("width", [2, 3, 4])
def test_two_field_equality_table(width):
    """x == y over two width-bit fields, the regular system's chaining check."""
    k = 2 * width
    table = [(r & ((1 << width) - 1)) == (r >> width) for r in range(1 << k)]
    assert_cover_no_worse(table, k)


def test_wide_tables_fall_back_to_minterms():
    """Past COVER_MAX_WIRES a table is covered by its true rows, which is
    still exact."""
    k = circuit.COVER_MAX_WIRES + 1
    table = np.zeros(1 << k, dtype=bool)
    table[[3, 7, 1 << (k - 1)]] = True
    new, ref = assert_cover_no_worse(table, k)
    assert size(new) == size(ref)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 4).flatmap(lambda k: st.lists(
    st.booleans(), min_size=1 << k, max_size=1 << k)), min_size=1, max_size=4), st.data())
def test_stamp_tables_matches_replay(tables, data):
    """Rows of tables over distinct inputs in one stamp, against the
    per-gate replay of each row's template
    (``circuit_reference.table_to_subcircuit_replay``): the same outputs
    and, built, the same gate count."""
    m = 5
    which = data.draw(st.lists(st.integers(0, len(tables) - 1), max_size=8))
    rows = [data.draw(st.permutations(range(m)))[:len(tables[t]).bit_length() - 1]
            for t in which]
    wires = np.full((len(rows), 4), -1, dtype=np.int64)
    for i, row in enumerate(rows):
        wires[i, :len(row)] = row
    stamped, replayed = CircuitBuilder(m), CircuitBuilder(m)
    stamped.inputs(0, m)
    nots = stamped.stamp((((NOT, -1, 0),), 0), np.arange(m)[:, None])
    stamped.set_outputs(circuit.stamp_tables(stamped, tables, wires, which, nots).tolist())
    replayed.inputs(0, m)
    replayed.set_outputs([table_to_subcircuit_replay(replayed, tables[t], row)
                          for t, row in zip(which, rows)])
    new, ref = stamped.build(), replayed.build()
    assert np.array_equal(eval_batch(new, _all_rows(m)), eval_batch(ref, _all_rows(m)))
    assert size(new) == size(ref)


def test_lower_fields_calls_fn_once_with_arrays():
    calls = []

    def fn(x, y):
        calls.append((x, y))
        return x == y

    b = CircuitBuilder(5)
    wires = [b.input(i) for i in range(5)]
    b.set_outputs([lower_fields(b, [(wires[:2], 3), (wires[2:], None)], fn)])
    (x, y), = calls
    assert x.shape == y.shape == (32,)
    assert x.max() == 2 and y.max() == 7  # x clamped to num_values - 1
    assert not x.flags.writeable
    c = b.build()
    rows = _all_rows(5)
    # fields are MSB first: wires[0] is the high bit of x
    xs = np.minimum(2 * rows[:, 0] + rows[:, 1], 2)
    ys = 4 * rows[:, 2] + 2 * rows[:, 3] + rows[:, 4]
    assert eval_batch(c, rows)[:, 0].tolist() == (xs == ys).astype(int).tolist()


def test_cover_cache_is_bounded():
    assert circuit._template.cache_info().maxsize == circuit.COVER_CACHE
    assert circuit._field_values.cache_info().maxsize == circuit.COVER_CACHE


# ---------------------------------------------------------------------------
# every family, under the reference lowering


MOD16_TXT = "states 16\nstart 0\nfinal 0\n" + "".join(
    f"trans {s} 0 {s}\ntrans {s} 1 {(s + 1) % 16}\n" for s in range(16))
MOD16 = parse_dfa(MOD16_TXT)


def _minterm_template(k: int, table: bytes) -> tuple:
    """``circuit._template`` under the minterm lowering: the one source of
    every table's gates, all stamped by ``stamp_tables``."""
    return circuit._record(k, lambda b, wires: table_to_subcircuit_reference(
        b, np.frombuffer(table, dtype=bool), wires))


def _lowering_cases():
    v = contains11_verifier()
    family = [(kind, params, {}) for kind, params, _ in _family_cases()]
    extra = [("padded", (v, 5), {"variant": "co-sac"}),
             ("padded", (v, 5), {"variant": "sac"}),
             ("regular", (MOD16, 32), {})]
    # The extras sit after the first 15 family cases and family cases added
    # since come last, so every case keeps the id it has always had.
    return family[:15] + extra + family[15:]


@pytest.mark.parametrize(
    "kind,params,options", _lowering_cases(),
    ids=[f"{k}-{i}" for i, (k, _, _) in enumerate(_lowering_cases())])
def test_family_no_worse_than_minterm_lowering(kind, params, options):
    fam = FAMILIES[kind]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(circuit, "_template", _minterm_template)
        ref = fam.synth(*params, **options)[0]
    new = fam.synth(*params, **options)[0]
    if params[0] is MOD16:  # the stamped tables lower through the patch too
        assert size(new) < size(ref)
    assert size(new) <= size(ref)
    assert depth(new) <= depth(ref)
    assert alternations(new) <= alternations(ref)
    assert new.num_inputs == ref.num_inputs
    if new.num_inputs <= EXHAUSTIVE_INPUTS:
        assert exact_range(new) == exact_range(ref)
    else:
        X = np.random.default_rng(0).integers(0, 2, (256, new.num_inputs),
                                              dtype=np.uint8)
        assert np.array_equal(eval_batch(new, X), eval_batch(ref, X))


# ---------------------------------------------------------------------------
# determinism


def _synth_text(tmp_path, hash_seed: str) -> str:
    dfa = tmp_path / "mod16.dfa"
    dfa.write_text(MOD16_TXT)
    out = tmp_path / f"c{hash_seed}.circ"
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(
               [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-m", "rangesynth.cli", "synth", "regular",
                    "--dfa", str(dfa), "--n", "12", "--out", str(out)],
                   check=True, env=env, cwd=ROOT, capture_output=True)
    return out.read_text()


def test_synth_text_does_not_depend_on_hash_seed(tmp_path):
    assert _synth_text(tmp_path, "1") == _synth_text(tmp_path, "2")


def test_warm_cover_cache_gives_the_same_circuit():
    automaton = parse_dfa(PARITY_TXT)
    warm = serialize(FAMILIES["regular"].synth(automaton, 9)[0])
    circuit._template.cache_clear()
    circuit._field_values.cache_clear()
    assert serialize(FAMILIES["regular"].synth(automaton, 9)[0]) == warm
