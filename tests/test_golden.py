"""Golden structural digests: every family's circuits stay the same DAG.

``tests/golden_digests.json`` holds one :func:`tests.structure.digest` per
instance below: the ``cli.FAMILIES`` cases, non-uniform structured BPs, and
every circuit shape perfbench builds (compile-large and certify-small).  A
change that claims to keep circuits keeps every digest; one that changes
structure on purpose regenerates the file and says so in CHANGES.md::

    PYTHONPATH=src python -m tests.test_golden
"""

import json
from pathlib import Path

import numpy as np
import pytest

from rangesynth import cli
from rangesynth.cli import FAMILIES
from rangesynth.languages import parse_dfa
from rangesynth.regular import parse_bp, unroll
from tests.conftest import (MOD3_TXT, NFA1_TXT, PARITY_TXT, TH2_TXT, XX_BP, const_verifier,
                            contains11_verifier)
from tests.structure import digest
from tests.test_lowering import MOD16_TXT

GOLDEN = Path(__file__).with_name("golden_digests.json")

AUTOMATA = {"parity": PARITY_TXT, "th2": TH2_TXT, "nfa1": NFA1_TXT, "mod3": MOD3_TXT,
            "mod16": MOD16_TXT}


def _permuted_th2(n: int):
    bp = unroll(parse_dfa(TH2_TXT), n)
    bp.gap_var = tuple(np.random.default_rng(n).permutation(n) + 1)
    return bp


def _middle_gap_parity(n: int):
    bp = unroll(parse_dfa(PARITY_TXT), n)
    bp.rel1[2] = np.roll(bp.rel1[2], 1, axis=1)
    return bp


def _cases() -> dict:
    """Instance name -> (family, params thunk); params are built lazily."""
    regular = [("parity", 4), ("parity", 13), ("th2", 3), ("th2", 8), ("nfa1", 4),
               ("nfa1", 8), ("mod3", 3), ("mod16", 9),
               # perfbench: compile-large, then certify-small
               ("parity", 256), ("mod3", 64), ("parity", 6), ("parity", 8),
               ("th2", 6), ("nfa1", 6)]
    cases = {f"regular-{a}-{n}": ("regular", lambda a=a, n=n: (parse_dfa(AUTOMATA[a]), n))
             for a, n in regular}
    cases.update({
        "structured-xx": ("structured", lambda: (parse_bp(XX_BP),)),
        "structured-permuted-th2-9": ("structured", lambda: (_permuted_th2(9),)),
        "structured-middle-gap-parity-9": ("structured", lambda: (_middle_gap_parity(9),)),
    })
    for kind in ("threshold", "exact"):
        # (6, 3) and (12, 5) as in tests/test_reduce.py; then perfbench's
        for n, t in ((6, 3), (12, 5), (256, 128), (128, 64), (32, 16), (64, 32)):
            cases[f"{kind}-{n}-{t}"] = (kind, lambda n=n, t=t: (n, t))
    for kind in ("cycles", "ustconn", "unreach"):
        for v in (4, 6):
            cases[f"{kind}-{v}"] = (kind, lambda v=v: (v,))
    for kind in ("cosac", "sac"):
        cases[f"{kind}-contains11"] = (kind, lambda: (contains11_verifier(),))
        cases[f"{kind}-const"] = (kind, lambda: (const_verifier(),))
    cases["padded-contains11-5"] = ("padded", lambda: (contains11_verifier(), 5))
    cases["union-exact-threshold-16"] = ("expr", lambda: (
        "union(exact(16,5),threshold(16,12))",))
    return cases


CASES = _cases()


def _circuit(name: str):
    family, params = CASES[name]
    if family == "expr":
        return cli._build_expr(cli._parse_expr(*params()))
    return FAMILIES[family].synth(*params())[0]


def test_every_family_has_a_digest():
    assert {family for family, _ in CASES.values()} >= set(FAMILIES)
    assert set(json.loads(GOLDEN.read_text())) == set(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_digest_unchanged(name):
    assert digest(_circuit(name)) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: digest(_circuit(name)) for name in CASES},
                                 indent=1) + "\n")
    print(f"wrote {len(CASES)} digests to {GOLDEN}")
