"""CLI: every subcommand end to end, exit-code contract."""

import re
from pathlib import Path

import numpy as np
import pytest

from rangesynth import cli
from rangesynth.circuit import CircuitBuilder, parse, serialize
from rangesynth.cli import FAMILIES, run
from rangesynth.npsys import pad_verifier, serialize_verifier, witness_np
from tests.conftest import PARITY_TXT, XX_BP, contains11_verifier


@pytest.fixture()
def parity_file(tmp_path):
    p = tmp_path / "parity.dfa"
    p.write_text(PARITY_TXT)
    return str(p)


@pytest.fixture()
def family_cases(tmp_path, parity_file):
    """Family -> (synth flags, language spec, member word), at tiny sizes."""
    bp = tmp_path / "xx.bp"
    bp.write_text(XX_BP)
    v = tmp_path / "contains11.ver"  # 3-bit words containing 11
    v.write_text(serialize_verifier(contains11_verifier()))
    return {
        "regular": (["--dfa", parity_file, "--n", "3"], f"regular:{parity_file}:3",
                    "101"),
        "structured": (["--bp", str(bp)], f"structured:{bp}", "0101"),
        "threshold": (["--n", "4", "--t", "2"], "threshold:4:2", "1010"),
        "exact": (["--n", "4", "--t", "2"], "exact:4:2", "0110"),
        "cycles": (["--n", "3"], "cycles:3", "011101110"),  # a triangle
        "ustconn": (["--n", "3"], "ustconn:3", "001000100"),  # edge 1-3
        "unreach": (["--n", "3"], "unreach:3", "010000000"),  # edge 1->2
        "cosac": (["--verifier", str(v)], f"cosac:{v}", "110"),
        "sac": (["--verifier", str(v)], f"sac:{v}", "011"),
        "padded": (["--verifier", str(v), "--n", "5"], f"padded:{v}:5", "11100"),
    }


@pytest.mark.parametrize("kind", list(FAMILIES))
def test_family_round_trip(kind, family_cases, tmp_path, capsys):
    assert kind in family_cases, f"no round-trip arguments for family {kind!r}"
    flags, lang, word = family_cases[kind]
    out = str(tmp_path / f"{kind}.circ")
    assert run(["synth", kind, *flags, "--out", out]) == 0
    capsys.readouterr()
    assert run(["witness", "--lang", lang, "--word", word]) == 0
    proof = capsys.readouterr().out.strip()
    if kind == "padded":
        v = pad_verifier(contains11_verifier(), 5)
        assert proof == "".join(map(str, witness_np(v, "cosac", word)))
    assert run(["eval", "--circuit", out, "--input", proof]) == 0
    assert capsys.readouterr().out.strip() == word
    assert run(["verify", "--circuit", out, "--lang", lang,
                "--mode", "witness"]) == 0
    assert "PASS completeness" in capsys.readouterr().out


@pytest.mark.parametrize("kind", list(FAMILIES))
def test_missing_flag_or_wrong_arity_exit_2(kind, family_cases, tmp_path, capsys):
    flags, lang, word = family_cases[kind]
    out = str(tmp_path / "c.circ")
    for i in range(0, len(flags), 2):  # drop one --flag value pair at a time
        assert run(["synth", kind, *flags[:i], *flags[i + 2:], "--out", out]) == 2
        assert f"needs {flags[i]}" in capsys.readouterr().err
    for spec in (lang + ":7", kind):  # one argument too many, none at all
        assert run(["witness", "--lang", spec, "--word", word]) == 2
        err = capsys.readouterr().err
        assert all(f"<{p}>" in err for p in FAMILIES[kind].params), err


def test_co_sac_alias(family_cases, tmp_path):
    flags = family_cases["cosac"][0]
    a, b = tmp_path / "a.circ", tmp_path / "b.circ"
    assert run(["synth", "co-sac", *flags, "--out", str(a)]) == 0
    assert run(["synth", "cosac", *flags, "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_docs_list_every_family():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    specs = readme.split("Language specs for")[1].split("\n\n")[0]
    assert set(re.findall(r"`(\w+):", specs)) == set(FAMILIES)
    assert set(re.findall(r"``(\w+):", cli.__doc__)) == set(FAMILIES)


@pytest.mark.parametrize("expr", [
    "", "union(", "union(exact(3,1)", "union(exact(3,1),)", "union(,exact(3,1))",
    "exact(3,1) junk", "exact(3 1)", "union(3)", "nosuch(1)", "exact(3)",
    "exact(3,x)", "reverse()", "union(exact(3,1) # )",
])
def test_bad_expression_exit_2(expr, tmp_path, capsys):
    assert run(["synth", "--expr", expr, "--out", str(tmp_path / "e.circ")]) == 2
    assert "error:" in capsys.readouterr().err


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


@pytest.mark.parametrize("kind", list(FAMILIES))
def test_parse_inverts_serialize(kind, family_cases):
    flags, _, _ = family_cases[kind]
    fam, params = cli._family(kind, *flags[1::2])
    c = fam.synth(*params)[0]
    assert parse(serialize(c)) == c


@pytest.mark.parametrize("text, line", [
    ("circuit -1 0 0\noutputs\n", 1),
    ("circuit 1 1 1\n0 INPUT 1\noutputs 0\n", 2),
    ("circuit 0 2 1\n0 CONST 0\n1 NOT 1\noutputs 1\n", 3),
    ("circuit 0 1 1\n0 CONST 0\noutputs 3\n", 3),
])
def test_stats_structural_fault_exit_2(text, line, tmp_path, capsys):
    path = tmp_path / "bad.circ"
    path.write_text(text)
    assert run(["stats", "--circuit", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: line {line}: " in captured.err


@pytest.mark.parametrize("lang, word", [
    ("ustconn:3", "010000000"),  # asymmetric
    ("cycles:3", "100000000"),   # diagonal bit
    ("cycles:0", ""),            # empty graph word
])
def test_witness_bad_encoding_exit_2(lang, word, capsys):
    assert run(["witness", "--lang", lang, "--word", word]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


@pytest.mark.parametrize("lang, word", [
    ("ustconn:3", "000000000"),  # 1 and 3 not connected
    ("unreach:3", "001000000"),  # edge 1 -> 3
    ("cycles:3", "011100100"),   # odd degrees
    ("threshold:4:2", "1000"),
])
def test_witness_non_member_exit_1(lang, word, capsys):
    assert run(["witness", "--lang", lang, "--word", word]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "witness error:" in captured.err


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_non_positive_trials_exit_2(trials, tmp_path, capsys):
    out = str(tmp_path / "c.circ")
    assert run(["synth", "threshold", "--n", "4", "--t", "2", "--out", out]) == 0
    capsys.readouterr()
    assert run(["verify", "--circuit", out, "--lang", "threshold:4:2",
                "--mode", "sample", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "--trials" in captured.err
