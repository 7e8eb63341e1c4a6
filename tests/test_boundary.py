"""Every entry point that takes bits refuses a malformed word at its boundary.

Each entry point reads its bits through one helper, ``circuit._as_bits``,
which checks the array's shape and its bits.  A word of the wrong shape
raises the entry's own error class and a bit other than 0 or 1 raises
``InputBitError``; nothing is cast first, so an int64 256 is not read as 0.
"""

import re
from functools import partial

import numpy as np
import pytest

from rangesynth.circuit import InputArityError, InputBitError, eval_batch, eval_circuit
from rangesynth.cli import run
from rangesynth.combinators import finite_language
from rangesynth.counting import witness_count
from rangesynth.graphs import witness_graph
from rangesynth.languages import (
    EncodingError, LanguageError, Regular, Threshold, member, member_batch, parse_dfa,
)
from rangesynth.npsys import verifier_member, witness_np
from rangesynth.regular import (
    WitnessError, synth_regular, unroll, witness_bp, witness_regular,
)
from rangesynth.verify import check_completeness, check_soundness
from tests.conftest import NFA1_TXT, PARITY_TXT, contains11_verifier

PARITY, NFA = parse_dfa(PARITY_TXT), parse_dfa(NFA1_TXT)
CIRCUIT = synth_regular(PARITY, 2)[0]
PROOF = witness_regular(PARITY, [0, 0])
VERIFIER = contains11_verifier()


def _batch(x):
    """Two copies of ``x``: a batch whose rows are the bad word."""
    return np.array([x, x])


def _two(word):
    """``word`` with 2 in place of its first bit."""
    x = word.copy()
    x[0] = 2
    return x


def _wide(word):
    """``word`` as int64 with 256 added to its first bit (a uint8 cast drops it)."""
    x = word.astype(np.int64)
    x[0] += 256
    return x


CASES = {
    "scalar": lambda w: w[0],
    "column": lambda w: w[:, None],
    "wrong-length": lambda w: np.append(w, 0),
    "bit-2": _two,
    "int64-256": _wide,
}
BIT_CASES = {"bit-2", "int64-256"}


# (entry, call, a good word, error class for a bad shape, cases it has no use
# for: a free-length entry takes a longer word; LayeredBp.accepts rejects it)
ENTRIES = [
    ("eval_circuit", partial(eval_circuit, CIRCUIT), PROOF, InputArityError, ()),
    ("eval_batch", lambda x: eval_batch(CIRCUIT, _batch(x)), PROOF,
     InputArityError, ()),
    ("member", partial(member, Regular(PARITY)), [0, 1, 1, 0], InputArityError,
     {"wrong-length"}),
    ("member_batch", lambda x: member_batch(Threshold(1), _batch(x)), [0, 1, 1, 0],
     InputArityError, {"wrong-length"}),
    ("check_soundness", lambda x: check_soundness(
        CIRCUIT, Regular(PARITY), budget=0, trials=1, base_proofs=_batch(x)),
     PROOF, InputArityError, ()),
    ("check_completeness-members", lambda x: check_completeness(
        CIRCUIT, Regular(PARITY), 2, witness_fn=partial(witness_regular, PARITY),
        members=_batch(x)), [0, 0], InputArityError, ()),
    ("check_completeness-proof", lambda x: check_completeness(
        CIRCUIT, Regular(PARITY), 2, witness_fn=lambda word: x, members=[[0, 0]]),
     PROOF, InputArityError, ()),
    ("witness_bp", partial(witness_bp, unroll(PARITY, 4)), [0, 1, 1, 0],
     WitnessError, ()),
    ("witness_regular", partial(witness_regular, PARITY), [0, 1, 1, 0],
     WitnessError, {"wrong-length"}),
    ("witness_count", partial(witness_count, "threshold", 4, 1), [0, 1, 1, 0],
     WitnessError, ()),
    ("witness_np", partial(witness_np, VERIFIER, "cosac"), [0, 1, 1], WitnessError, ()),
    ("verifier_member", partial(verifier_member, VERIFIER), [0, 1, 1],
     LanguageError, ()),
    ("LayeredBp.accepts", unroll(PARITY, 4).accepts, [0, 1, 1, 0],
     InputArityError, {"wrong-length"}),
    ("Dfa.accepts", PARITY.accepts, [0, 1, 1, 0], InputArityError, {"wrong-length"}),
    ("Nfa.accepts", NFA.accepts, [0, 1, 1, 0], InputArityError, {"wrong-length"}),
    ("finite_language", lambda x: finite_language([x]), [0, 1, 1, 0],
     LanguageError, {"wrong-length"}),
]


@pytest.mark.parametrize("entry,case", [
    (entry, case) for entry, *_, skip in ENTRIES for case in CASES if case not in skip
])
def test_bad_input_fails_at_the_boundary(entry, case):
    call, word, error, _ = next(rest for name, *rest in ENTRIES if name == entry)
    x = CASES[case](np.array(word, dtype=np.uint8))
    with pytest.raises(InputBitError if case in BIT_CASES else error):
        call(x)


def test_good_words_pass_every_entry():
    for _, call, word, _, _ in ENTRIES:
        call(np.array(word, dtype=np.uint8))


@pytest.mark.parametrize("case", ["wrong-length", "bit-2"])
def test_cli_witness_exits_2(case, capsys):
    """A --word string carries neither a shape nor an int64, but a wrong
    length or a bad bit exits 2 before any witness runs."""
    word = "".join(map(str, CASES[case](np.array([0, 1, 1, 0], dtype=np.uint8))))
    assert run(["witness", "--lang", "threshold:4:1", "--word", word]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["cycles", "ustconn", "unreach"])
@pytest.mark.parametrize("shape", [(16, 1), (1, 16), (2, 2, 4), ()])
def test_graph_of_another_shape_is_refused(kind, shape):
    """A graph is a word or a square matrix; any other shape is refused by
    name, though it holds the bits of a 4-vertex graph."""
    G = np.zeros(16 if shape else (), dtype=np.uint8).reshape(shape)
    with pytest.raises(EncodingError, match=re.escape(f"got shape {shape}")):
        witness_graph(kind, G)


@pytest.mark.parametrize("kind", ["cycles", "ustconn", "unreach"])
def test_graph_word_and_square_matrix_agree(kind):
    word = np.zeros(16, dtype=np.uint8)
    word[[3, 12]] = 1 if kind == "ustconn" else 0  # the (1, 4) edge
    assert np.array_equal(witness_graph(kind, word.reshape(4, 4)),
                          witness_graph(kind, word))
