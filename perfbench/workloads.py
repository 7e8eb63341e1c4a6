"""The three benchmark workloads: seeded inputs and one pass over them.

Each workload has a ``make`` step, which draws every input from the seed
(this is the set-up the benchmark times as ``setup_s``), and a ``run`` step,
which is one pass: it calls the public API and the in-process CLI on those
inputs, times each call by category and checks every answer against the
oracles in ``oracles.py``.  A run repeats passes over the same inputs until
its time is up.

Sizes are well below the ones first prototyped (parity at n=4096, automata
at n up to 11, 100 graph members per family), so that one pass takes three
to four seconds and a run holds enough passes to report medians; the shapes
that make each workload different are kept.
``tiny=True`` shrinks everything further for the smoke test.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from rangesynth import circuit, counting, graphs, languages, npsys, regular
from rangesynth.languages import (
    Cycles, ExactCount, NpPadded, Regular, Threshold, UnReach, USTConn,
)

from . import oracles as O
from .recorder import Pass, broken_is_caught, negate_output

# Mutation probes start after the first 2^14 uniform trials of
# check_soundness, so a mutated check needs more trials than that.
UNIFORM_CHUNK = 1 << 14

# Declared bounds, from the acceptance tests: depth <= C * ceil(log2 log2
# (n + 4)) + D, at most 13 alternations, and the NC0 cone bounds.
PARITY_DEPTH = (3, 6)
WIDE_DEPTH = (10, 6)
MAX_ALT = 13
CONE_BOUND = {"cycles": 6, "ustconn": 8, "unreach": 3}


def depth_bound(n: int, consts) -> int:
    return consts[0] * math.ceil(math.log2(math.log2(n + 4))) + consts[1]


@dataclass
class Inputs:
    seed: int
    tiny: bool
    data: dict


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cli_broken_probe(rec: Pass, seed: int, honest: str, lang: str, oracle,
                      spec, synth_argv: list, stats_argv: list, what: str):
    """Known CLI answers on one family: synth, stats, honest and broken verify.

    The broken circuit is the honest one with one seeded output negated; its
    soundness verdict must be FAIL on a word the oracle rejects, and CLI
    verify must exit 1 on it.  Returns the honest circuit and what
    `rangesynth stats` printed for it.
    """
    rec.cli(["synth", *synth_argv, "--out", honest], 0, "compile")
    stats = rec.cli(["stats", "--circuit", honest, *stats_argv], 0, "certify")
    rec.cli(["verify", "--circuit", honest, "--lang", lang, "--mode", "sample",
             "--trials", "2048", "--seed", str(seed)], 0, "certify")
    c = circuit.parse(_read(honest))
    j = int(np.random.default_rng(seed).integers(0, len(c.outputs)))
    broken = negate_output(c, j)
    report = rec.soundness(broken, spec, False, f"{what} broken", budget=0,
                           seed=seed, trials=512)
    broken_is_caught(rec, report, oracle, f"{what} broken")
    path = honest + ".broken"
    _write(os.path.dirname(honest), os.path.basename(path), circuit.serialize(broken))
    rec.cli(["verify", "--circuit", path, "--lang", lang, "--mode", "sample",
             "--trials", "512", "--seed", str(seed)], 1, "certify")
    return c, stats


# ---------------------------------------------------------------------------
# compile-large: circuit-scale synthesis and metric kernels through the CLI


# Why: the largest circuits a pass of a few seconds can afford (13k-21k gates
# each, 72k in all); synthesis, parse/serialize and the depth/alternation
# kernels dominate, and eval_batch sees few rows on many gates.  Parity and
# mod-3 differ in automaton width, threshold and exact in the comparator the
# count tree uses.
COMPILE_LARGE = {
    False: [("regular", "parity", 256), ("regular", "mod3", 64),
            ("threshold", None, 256), ("exact", None, 128)],
    True: [("regular", "parity", 32), ("regular", "mod3", 16),
           ("threshold", None, 32), ("exact", None, 16)],
}
DFA_TEXT = {"parity": O.PARITY_TXT, "mod3": O.MOD3_TXT}


def make_compile_large(seed: int, tiny: bool) -> Inputs:
    rng = np.random.default_rng(seed)
    n_parity = COMPILE_LARGE[tiny][0][2]
    return Inputs(seed, tiny, {
        "parity": languages.parse_dfa(O.PARITY_TXT),
        # 16 witness_regular proofs on the parity circuit
        "members": O.parity_members(rng, n_parity, 16),
        "expr_n": 8 if tiny else 16,
    })


def run_compile_large(inp: Inputs, rec: Pass):
    seed, wd = inp.seed, rec.workdir
    for family, dfa, n in COMPILE_LARGE[inp.tiny]:
        out = os.path.join(wd, f"{dfa or family}.circ")
        if family == "regular":
            dfa_path = _write(wd, f"{dfa}.dfa", DFA_TEXT[dfa])
            synth = ["regular", "--dfa", dfa_path, "--n", str(n)]
            lang = f"regular:{dfa_path}:{n}"
        else:
            synth = [family, "--n", str(n), "--t", str(n // 2)]
            lang = f"{family}:{n}:{n // 2}"
        consts = PARITY_DEPTH if dfa == "parity" else WIDE_DEPTH
        stats = ["--bound-depth", str(depth_bound(n, consts)),
                 "--bound-alt", str(MAX_ALT)]
        if dfa == "parity":
            c, printed = _cli_broken_probe(
                rec, seed, out, lang, lambda w: O.popcount(w) % 2 == 0,
                Regular(inp.data["parity"]), synth, stats, "parity")
            _parity_proofs(inp, rec, c, n)
        else:
            rec.cli(["synth", *synth, "--out", out], 0, "compile")
            printed = rec.cli(["stats", "--circuit", out, *stats], 0, "certify")
            rec.cli(["verify", "--circuit", out, "--lang", lang, "--mode",
                     "sample", "--trials", "256", "--seed", str(seed)], 0,
                    "certify")
        _add_stats(rec, printed)

    # one small combinator expression: exactly 5 ones, or at least 12 of 16
    k = inp.data["expr_n"]
    lo, hi = k // 3, 3 * k // 4
    out = os.path.join(wd, "union.circ")
    rec.cli(["synth", "--expr", f"union(exact({k},{lo}),threshold({k},{hi}))",
             "--out", out], 0, "compile")
    _add_stats(rec, rec.cli(["stats", "--circuit", out], 0, "certify"))
    c = circuit.parse(_read(out))
    rec.spot_check(c, lambda w: O.popcount(w) == lo or O.popcount(w) >= hi,
                   np.random.default_rng(seed), 256, "union")


def _add_stats(rec: Pass, printed: str):
    """Add the size, depth and alternations `rangesynth stats` printed."""
    fields = {}
    for line in printed.splitlines():
        key, _, val = line.partition(":")
        if val.strip().isdigit():
            fields[key.strip()] = int(val)
    rec.add_structure(fields["size"], fields["depth"], fields["alternations"])


def _parity_proofs(inp: Inputs, rec: Pass, c, n: int):
    parity = inp.data["parity"]
    members = inp.data["members"]
    for w in members:
        rec.check(O.popcount(w) % 2 == 0, "parity member by construction")
    _complete_and_sound(rec, c, Regular(parity), n, members,
                        lambda w: regular.witness_regular(parity, w),
                        inp.seed, UNIFORM_CHUNK + 512, "parity",
                        memory_bound=True)


# ---------------------------------------------------------------------------
# certify-small: the verdict path on many small circuits


# Why: witness-mode completeness evaluates one proof per member, so this
# workload calls eval_batch about a thousand times with one row each, the
# opposite shape from compile-large.  The automata are enumerated in full
# (their slices are small); counting words and the verifier come from the
# seed.  Synthesis here is cheap and the metric kernels nearly idle.
CERTIFY_SMALL = {
    False: {"aut_n": (6, 8), "count_n": (32, 64), "count_members": 16,
            "mutated": 1024},
    True: {"aut_n": (5,), "count_n": (8,), "count_members": 4, "mutated": 64},
}
AUTOMATA = {"parity": O.PARITY_TXT, "th2": O.TH2_TXT, "nfa1": O.NFA1_TXT}
VERIFIER_SHAPE = (4, 2, 9)  # num_x, num_y, gates


def make_certify_small(seed: int, tiny: bool) -> Inputs:
    rng = np.random.default_rng(seed)
    size = CERTIFY_SMALL[tiny]
    automata = {}
    for name, text in AUTOMATA.items():
        oracle = O.Automaton(text)
        automata[name] = (languages.parse_dfa(text), oracle,
                          {n: oracle.members(n) for n in size["aut_n"]})
    counts = {}
    for n in size["count_n"]:
        for kind in ("threshold", "exact"):
            counts[(kind, n)] = O.count_members(
                rng, n, n // 2, size["count_members"], kind == "exact")
    num_x, num_y, num_gates = VERIFIER_SHAPE
    gates = O.random_verifier(rng, num_x, num_y, num_gates)
    b = circuit.CircuitBuilder(num_x + num_y)
    wires = [b.input(i) for i in range(num_x + num_y)]
    for kind, a, c in gates:
        if kind == O.NOT:
            wires.append(b.not_(wires[a]))
        elif kind == O.AND:
            wires.append(b.and_(wires[a], wires[c]))
        else:
            wires.append(b.or_(wires[a], wires[c]))
    b.set_outputs([wires[-1]])
    verifier = npsys.VerifierCircuit(b.build(), num_x, num_y)
    padded_words = [w for w in O.all_words(num_x + 2)
                    if O.padded_member(gates, num_x, num_y, w)]
    return Inputs(seed, tiny, {
        "automata": automata, "counts": counts, "verifier": verifier,
        "padded_members": np.array(padded_words),
    })


def run_certify_small(inp: Inputs, rec: Pass):
    seed, size = inp.seed, CERTIFY_SMALL[inp.tiny]
    trials = UNIFORM_CHUNK + size["mutated"]
    for name, (automaton, _, members) in inp.data["automata"].items():
        spec = Regular(automaton)
        for n in size["aut_n"]:
            c, _ = rec.compile(regular.synth_regular, automaton, n)
            consts = PARITY_DEPTH if name == "parity" else WIDE_DEPTH
            rec.audit(c, f"{name}{n}", max_depth=depth_bound(n, consts),
                      max_alternations=MAX_ALT)
            got = languages.enumerate_slice(spec, n)
            rec.check(np.array_equal(got, members[n]),
                      f"{name}{n}: enumerate_slice disagrees with the DFA run")
            _complete_and_sound(
                rec, c, spec, n, members[n],
                lambda w, a=automaton: regular.witness_regular(a, w),
                seed, trials, f"{name}{n}")

    for (kind, n), members in inp.data["counts"].items():
        t = n // 2
        synth = counting.synth_threshold if kind == "threshold" else counting.synth_exact_count
        c, _ = rec.compile(synth, n, t)
        rec.audit(c, f"{kind}{n}", max_depth=depth_bound(n, WIDE_DEPTH),
                  max_alternations=MAX_ALT)
        spec = Threshold(t) if kind == "threshold" else ExactCount(t)
        for w in members:
            ones = O.popcount(w)
            rec.check(ones >= t if kind == "threshold" else ones == t,
                      f"{kind}{n}: member by construction")
        _complete_and_sound(
            rec, c, spec, n, members,
            lambda w, k=kind, n=n, t=t: counting.witness_count(k, n, t, w),
            seed, trials, f"{kind}{n}")

    v = inp.data["verifier"]
    num_x = v.num_x + 2
    padded = rec.compile(npsys.pad_verifier, v, num_x)
    sac, cosac = rec.compile(npsys.pad_language, v, num_x)
    members = inp.data["padded_members"]
    for variant, c in (("cosac", cosac), ("sac", sac)):
        rec.audit(c, f"padded {variant}")
        _complete_and_sound(
            rec, c, NpPadded(v), num_x, members,
            lambda w, var=variant: npsys.witness_np(padded, var, w),
            seed, trials, f"padded {variant}")

    automaton, oracle, _ = inp.data["automata"]["parity"]
    n = size["aut_n"][-1]
    dfa = _write(rec.workdir, "parity.dfa", O.PARITY_TXT)
    _cli_broken_probe(
        rec, seed, os.path.join(rec.workdir, "parity.circ"),
        f"regular:{dfa}:{n}", oracle.accepts, Regular(automaton),
        ["regular", "--dfa", dfa, "--n", str(n)],
        ["--bound-depth", str(depth_bound(n, PARITY_DEPTH))], "parity")


def _complete_and_sound(rec: Pass, c, spec, n: int, members, witness_fn,
                        seed: int, trials: int, what: str,
                        memory_bound: bool = False):
    proofs = []

    def witness(w):
        proofs.append(witness_fn(w))
        return proofs[-1]

    rec.completeness(c, spec, n, witness, members, what)
    rec.soundness(c, spec, True, f"{what} mutated", memory_bound=memory_bound,
                  budget=0, seed=seed, trials=trials,
                  base_proofs=np.array(proofs))


# ---------------------------------------------------------------------------
# nc0-graphs: shallow, wide circuits whose membership oracle is costly


# Why: the graph circuits have constant cones and depth, so evaluation is
# cheap per gate, while witnesses (cycle decomposition over the triangle
# basis, shortest paths, cuts) and the reachability oracle (boolean matrix
# squaring) carry the load.  It is the only workload where `graphs` and
# `languages` matter.  Members are built by construction because rejection
# sampling for Cycles and UnReach does not converge at v=20.  Mutated
# soundness runs at the smaller size only: at v=40 the squaring oracle on
# 2^14 words costs over a second per family.
NC0_GRAPHS = {
    False: {"sizes": (20, 40), "members": 20, "mutated": 1024,
            "uniform": 2048},
    True: {"sizes": (6,), "members": 4, "mutated": 64, "uniform": 256},
}
# kind -> (synthesizer name in rangesynth.graphs, spec, generator, oracle)
GRAPH_FAMILIES = {
    "cycles": ("synth_cycles", Cycles(), O.cycles_members, O.degrees_even),
    "ustconn": ("synth_ustconn", USTConn(), O.ustconn_members,
                lambda w: O.reaches(w, undirected=True)),
    "unreach": ("synth_unreach", UnReach(), O.unreach_members,
                lambda w: not O.reaches(w, undirected=False)),
}


def make_nc0_graphs(seed: int, tiny: bool) -> Inputs:
    rng = np.random.default_rng(seed)
    size = NC0_GRAPHS[tiny]
    members = {}
    for v in size["sizes"]:
        for kind, (_, _, gen, _) in GRAPH_FAMILIES.items():
            members[(kind, v)] = gen(rng, v, size["members"])
    return Inputs(seed, tiny, {"members": members})


def run_nc0_graphs(inp: Inputs, rec: Pass):
    seed, size = inp.seed, NC0_GRAPHS[inp.tiny]
    smallest = size["sizes"][0]
    for (kind, v), members in inp.data["members"].items():
        synth_name, spec, _, oracle = GRAPH_FAMILIES[kind]
        c = rec.compile(getattr(graphs, synth_name), v)
        rec.audit(c, f"{kind}{v}", max_cone=CONE_BOUND[kind])
        for w in members:
            rec.check(oracle(w), f"{kind}{v}: member by construction")
        proofs = []

        def witness(w, kind=kind):
            proofs.append(graphs.witness_graph(kind, w))
            return proofs[-1]

        rec.completeness(c, spec, v * v, witness, members, f"{kind}{v}")
        if v == smallest:
            rec.soundness(c, spec, True, f"{kind}{v} mutated",
                          memory_bound=True, budget=0, seed=seed,
                          trials=UNIFORM_CHUNK + size["mutated"],
                          base_proofs=np.array(proofs))
        else:
            rec.soundness(c, spec, True, f"{kind}{v}", memory_bound=True,
                          budget=0, seed=seed, trials=size["uniform"])

    v = smallest
    _cli_broken_probe(
        rec, seed, os.path.join(rec.workdir, "cycles.circ"), f"cycles:{v}",
        O.degrees_even, Cycles(), ["cycles", "--n", str(v)],
        ["--cones", "--bound-cone", str(CONE_BOUND["cycles"])], "cycles")


WORKLOADS = {
    "compile-large": (make_compile_large, run_compile_large),
    "certify-small": (make_certify_small, run_certify_small),
    "nc0-graphs": (make_nc0_graphs, run_nc0_graphs),
}
