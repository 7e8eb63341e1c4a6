"""CLI: every subcommand end to end, exit-code contract."""

import numpy as np
import pytest

from rangesynth.circuit import CircuitBuilder, serialize
from rangesynth.cli import run
from tests.conftest import PARITY_TXT


@pytest.fixture()
def parity_file(tmp_path):
    p = tmp_path / "parity.dfa"
    p.write_text(PARITY_TXT)
    return str(p)


def test_synth_eval_roundtrip(tmp_path, parity_file, capsys):
    out = str(tmp_path / "c.circ")
    assert run(["synth", "regular", "--dfa", parity_file, "--n", "3",
                "--out", out]) == 0
    capsys.readouterr()
    assert run(["witness", "--lang", f"regular:{parity_file}:3",
                "--word", "101"]) == 0
    proof = capsys.readouterr().out.strip()
    assert run(["eval", "--circuit", out, "--input", proof]) == 0
    assert capsys.readouterr().out.strip() == "101"


def test_eval_constant_circuit(tmp_path, capsys):
    b = CircuitBuilder(0)
    b.set_outputs([b.const(1), b.const(0)])
    path = tmp_path / "const.circ"
    path.write_text(serialize(b.build()))
    assert run(["eval", "--circuit", str(path), "--input", ""]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_verify_exhaustive_pass(tmp_path, parity_file, capsys):
    out = str(tmp_path / "c.circ")
    run(["synth", "regular", "--dfa", parity_file, "--n", "3", "--out", out])
    capsys.readouterr()
    assert run(["verify", "--circuit", out,
                "--lang", f"regular:{parity_file}:3",
                "--mode", "exhaustive"]) == 0
    text = capsys.readouterr().out
    assert "PASS soundness" in text and "PASS completeness" in text


def test_verify_cycles_end_to_end(tmp_path, capsys):
    out = str(tmp_path / "cyc.circ")
    assert run(["synth", "cycles", "--n", "4", "--out", out]) == 0
    assert run(["verify", "--circuit", out, "--lang", "cycles:4",
                "--mode", "exhaustive"]) == 0


def test_verify_failure_exit_1(tmp_path, parity_file, capsys):
    # constant 11 circuit is not complete for parity at n=2
    b = CircuitBuilder(0)
    b.set_outputs([b.const(1), b.const(1)])
    path = tmp_path / "const.circ"
    path.write_text(serialize(b.build()))
    assert run(["verify", "--circuit", str(path),
                "--lang", f"regular:{parity_file}:2",
                "--mode", "exhaustive"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_stats_and_bounds(tmp_path, capsys):
    out = str(tmp_path / "cyc.circ")
    run(["synth", "cycles", "--n", "5", "--out", out])
    capsys.readouterr()
    assert run(["stats", "--circuit", out]) == 0
    text = capsys.readouterr().out
    assert "depth" in text and "alternations" in text
    assert run(["stats", "--circuit", out, "--bound-cone", "6"]) == 0
    assert run(["stats", "--circuit", out, "--bound-cone", "1"]) == 1


def test_expr_synthesis(tmp_path, capsys):
    out = str(tmp_path / "u.circ")
    assert run(["synth", "--expr", "union(exact(3,1), exact(3,3))",
                "--out", out]) == 0
    text = capsys.readouterr().out
    # "wrote <path>: <m> inputs, ..." -- selector bit + 2x (3 word + 2 label)
    m = int(text.split(":")[1].split()[0])
    assert run(["eval", "--circuit", out, "--input", "0" * m]) == 0
    word = capsys.readouterr().out.strip()
    assert word.count("1") in (1, 3)


def test_unknown_subcommand_exit_2(capsys):
    assert run(["frobnicate"]) == 2


def test_bad_flag_exit_2(capsys):
    assert run(["synth", "regular", "--bogus", "x"]) == 2


def test_malformed_word_exit_2(parity_file, capsys):
    assert run(["witness", "--lang", f"regular:{parity_file}:3",
                "--word", "10"]) == 2


@pytest.mark.parametrize("bits", ["102", "1 0", "-01"])
def test_eval_bad_bits_exit_2(tmp_path, bits, capsys):
    b = CircuitBuilder(3)
    b.set_outputs([b.not_(b.input(i)) for i in range(3)])
    path = tmp_path / "not3.circ"
    path.write_text(serialize(b.build()))
    assert run(["eval", "--circuit", str(path), "--input", "101"]) == 0
    assert capsys.readouterr().out.strip() == "010"
    assert run(["eval", "--circuit", str(path), "--input", bits]) == 2
    assert "must be 0 or 1" in capsys.readouterr().err


def test_witness_bad_bits_exit_2(parity_file, capsys):
    assert run(["witness", "--lang", f"regular:{parity_file}:3",
                "--word", "121"]) == 2


def test_layout_emitted(tmp_path, parity_file):
    out = tmp_path / "c.circ"
    run(["synth", "regular", "--dfa", parity_file, "--n", "2",
         "--out", str(out)])
    layout = out.with_suffix(".circ.layout")
    assert layout.exists()
    text = layout.read_text()
    assert text.startswith("word 0 2")
