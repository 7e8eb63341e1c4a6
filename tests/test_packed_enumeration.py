"""The packed input enumeration against the uint8 candidate paths it replaced.

``enumerate_slice`` walks every valid encoding bit-sliced through
``circuit._all_packed`` and ``languages._space``, ``sample_members`` packs
its rng draws through the same ``_space``, ``npsys._certificate`` evaluates
every certificate of an x in one packed call per chunk, and ``_all_packed``
unpacked lists every input.  Each is compared with the code it replaced, kept
in ``tests/membership_reference.py`` and ``tests/circuit_reference.py``:
equal arrays, dtype and shape, and for the samplers the same words per seed.
"""

import numpy as np
import pytest

from rangesynth import circuit, languages
from rangesynth.circuit import CircuitBuilder, _all_packed, _unpack_rows
from rangesynth.languages import (
    BudgetError, Combined, Cycles, EncodingError, ExactCount, NpCoSac, NpPadded,
    NpSac, Regular, Threshold, UnReach, USTConn, enumerate_slice, parse_dfa,
    sample_members,
)
from rangesynth.npsys import VerifierCircuit, _certificate
from rangesynth.regular import parse_bp
from tests import membership_reference as ref
from tests.circuit_reference import all_inputs_reference
from tests.conftest import (
    MOD3_TXT, NFA1_TXT, PARITY_TXT, TH2_TXT, XX_BP, contains11_verifier,
)

PARITY, TH2, NFA1, MOD3 = (parse_dfa(t) for t in (PARITY_TXT, TH2_TXT, NFA1_TXT, MOD3_TXT))
EMPTY_DFA = parse_dfa("states 1\nstart 0\ntrans 0 0 0\ntrans 0 1 0\n")
XX = parse_bp(XX_BP)
V11 = contains11_verifier()


def _slice_cases():
    """(spec, n) pairs: every spec family, n = 0, empty slices, and slices
    of 2^17 candidates, which take two enumeration chunks."""
    cases = [(Regular(a), n) for a in (PARITY, TH2, NFA1, MOD3, EMPTY_DFA)
             for n in (0, 1, 5, 8)]
    cases += [(Regular(MOD3), 17), (Regular(XX), 4), (Regular(XX), 3)]
    for n in (0, 1, 6):
        cases += [(Threshold(t), n) for t in (-1, 0, 2, n, n + 1)]
        cases += [(ExactCount(t), n) for t in (-1, 0, 3, n, n + 1)]
    cases += [(ExactCount(3), 17), (Threshold(16), 17)]
    cases += [(spec, v * v) for spec in (Cycles(), USTConn(), UnReach())
              for v in (1, 2, 3)]
    cases += [(Cycles(), 16), (USTConn(), 25), (UnReach(), 16)]
    cases += [(NpPadded(V11), 5), (NpCoSac(V11), 3), (NpSac(V11), 3)]
    cases += [
        (Combined("union", (ExactCount(1), ExactCount(3))), 4),
        (Combined("union", (Threshold(3), Regular(PARITY))), 5),
        (Combined("finite", (), (("0110", "1111"),)), 4),
        (Combined("finite", (), ((),)), 3),
        (Combined("reverse", (Regular(XX),)), 4),
        (Combined("upclose", (ExactCount(2),)), 4),
    ]
    return cases


def _case_id(case):
    spec, n = case
    return f"{type(spec).__name__}-{n}"


@pytest.mark.parametrize("case", _slice_cases(), ids=_case_id)
def test_enumerate_slice_matches_candidate_matrices(case):
    spec, n = case
    got, want = enumerate_slice(spec, n), ref.enumerate_slice(spec, n)
    assert got.dtype == want.dtype == np.uint8
    assert got.shape == want.shape and got.shape[1:] == (n,)
    assert np.array_equal(got, want)


def test_enumerate_slice_empty_and_nonempty_shapes():
    assert enumerate_slice(ExactCount(4), 3).shape == (0, 3)
    assert enumerate_slice(Threshold(1), 0).shape == (0, 0)
    assert enumerate_slice(Regular(PARITY), 0).shape == (1, 0)
    assert enumerate_slice(Cycles(), 1).tolist() == [[0]]


@pytest.mark.parametrize("spec, n, budget", [
    (Threshold(1), 40, 1 << 24), (Regular(PARITY), 9, 511),
    (Cycles(), 36, 1 << 14), (UnReach(), 16, 1 << 15),
])
def test_enumerate_slice_budget_refusal_matches(spec, n, budget):
    with pytest.raises(BudgetError) as want:
        ref.enumerate_slice(spec, n, budget)
    with pytest.raises(BudgetError) as got:
        enumerate_slice(spec, n, budget)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("spec", [Cycles(), USTConn(), UnReach()],
                         ids=lambda s: type(s).__name__)
def test_enumerate_slice_rejects_a_non_square_length(spec):
    for n in (0, 5):
        with pytest.raises(EncodingError):
            ref.enumerate_slice(spec, n)
        with pytest.raises(EncodingError):
            enumerate_slice(spec, n)


@pytest.mark.parametrize("spec, n", [
    (Regular(PARITY), 8), (Regular(NFA1), 6), (Regular(XX), 4),
    (Cycles(), 1), (Cycles(), 16), (Cycles(), 25), (USTConn(), 1), (USTConn(), 16),
    (UnReach(), 9), (NpCoSac(V11), 3), (NpPadded(V11), 5),
    (Combined("union", (ExactCount(1), Regular(PARITY))), 6),
], ids=lambda x: type(x).__name__ if not isinstance(x, int) else str(x))
def test_sample_members_same_words_per_seed(spec, n):
    for count in (0, 1, 30, 200):
        for seed in (0, 1, 7):
            got = sample_members(spec, n, count, seed)
            want = ref.sample_members(spec, n, count, seed)
            assert got.dtype == want.dtype == np.uint8
            assert got.shape == want.shape == (count, n)
            assert np.array_equal(got, want)


def test_sample_members_refuses_a_non_square_graph_length():
    with pytest.raises(EncodingError):
        sample_members(USTConn(), 5, 3)


def _random_verifier(rng, num_x, num_y, gates=10):
    """A verifier of ``gates`` random NOT/AND/OR gates over x and y."""
    b = CircuitBuilder(num_x + num_y)
    wires = [b.input(i) for i in range(num_x + num_y)] or [b.const(1)]
    for _ in range(gates):
        op = int(rng.integers(3))
        a, c = (wires[i] for i in rng.integers(0, len(wires), 2).tolist())
        wires.append(b.not_(a) if op == 0 else b.and_(a, c) if op == 1 else b.or_(a, c))
    b.set_outputs([wires[-1]])
    return VerifierCircuit(b.build(), num_x, num_y)


def _all_x(num_x):
    return [x for chunk in all_inputs_reference(num_x) for x in chunk]


def test_certificate_matches_eval_batch_search():
    rng = np.random.default_rng(5)
    found = missing = 0
    for trial in range(120):
        num_x, num_y = int(rng.integers(0, 4)), int(rng.integers(0, 9))
        v = _random_verifier(rng, num_x, num_y)
        for x in _all_x(num_x):
            got, want = _certificate(v, x), ref.certificate(v, x)
            if want is None:
                assert got is None
                missing += 1
            else:
                assert got.dtype == want.dtype == np.uint8
                assert got.shape == want.shape == (num_y,)
                assert np.array_equal(got, want)
                found += 1
    assert found and missing


@pytest.mark.parametrize("num_y", [0, 1, 6, 7, 17])
def test_certificate_at_the_last_y(num_y):
    """Only y = 1...1 certifies x = 1, which no y certifies for x = 0; at
    num_y = 17 that y lies in the second chunk of certificates."""
    b = CircuitBuilder(1 + num_y)
    b.set_outputs([b.and_tree([b.input(i) for i in range(1 + num_y)])])
    v = VerifierCircuit(b.build(), 1, num_y)
    for bit in (0, 1):
        x = np.array([bit], dtype=np.uint8)
        got, want = _certificate(v, x), ref.certificate(v, x)
        if bit:
            assert np.array_equal(got, want) and got.dtype == np.uint8
            assert got.tolist() == [1] * num_y
        else:
            assert got is None and want is None


@pytest.mark.parametrize("m", list(range(13)) + [16, 17])
def test_all_inputs_matches_row_index_bits(m):
    """The packed enumerator, unpacked chunk by chunk, lists every input in
    row-index order."""
    got = [_unpack_rows(P, rows) for P, rows in _all_packed(m, 1 << 10)]
    want = list(all_inputs_reference(m))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.uint8
        assert np.array_equal(a, b)


def test_enumerate_slice_packs_and_unpacks_no_candidate_matrix(monkeypatch):
    """No candidate is built as a uint8 row and packed again: ``_pack_rows``
    does not run under ``enumerate_slice``."""
    calls = []

    def counting(fn):
        return lambda *args, **kwargs: calls.append(fn.__name__) or fn(*args, **kwargs)

    for module, name in ((circuit, "_pack_rows"), (languages, "_pack_rows")):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    for spec, n in _slice_cases():
        if n < 17:
            enumerate_slice(spec, n)
    assert calls == []
