"""Command-line front end: synth, eval, verify, stats, witness.

Language specs on the command line use a colon mini-syntax:
``regular:<dfa-file>:<n>``, ``structured:<bp-file>``, ``threshold:<n>:<t>``,
``exact:<n>:<t>``, ``cycles:<n>``, ``ustconn:<n>``, ``unreach:<n>``,
``cosac:<verifier-file>``, ``sac:<verifier-file>``, ``padded:<verifier-file>:<n>``;
``witness`` and ``verify --mode witness`` work for every family.  Exit codes:
0 pass, 1 verification failure, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache, partial
from typing import Callable, NamedTuple

from . import combinators, counting, graphs, npsys, regular
from .circuit import CircuitError, _as_bits, eval_circuit, metrics, parse, serialize
from .languages import (
    Cycles, ExactCount, LanguageError, NpCoSac, NpPadded, NpSac, Regular,
    Threshold, UnReach, USTConn, parse_dfa, word_to_string,
)
from .verify import audit_metrics, check_completeness, check_soundness, render_report


class UsageError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


# ---------------------------------------------------------------------------
# language families


class Family(NamedTuple):
    """How the CLI synthesizes, specifies and proves one language family.

    ``params`` name the synth flags in the positional order of ``--lang``
    specs and ``--expr`` calls; the callables take the loaded parameters, and
    ``options`` are extra synth flags passed by keyword.  Entries look layer
    functions up when they run, so wrappers installed on the modules see them.
    """

    params: tuple
    synth: Callable    # params -> (circuit, layout or None)
    spec: Callable     # params -> (language spec, word length)
    witness: Callable  # params -> (member word -> proof)
    options: tuple = ()


# parameter name -> (loader from its string, help text)
_PARAMS = {
    "dfa": (lambda s: parse_dfa(_read(s)), "automaton file"),
    "bp": (lambda s: regular.parse_bp(_read(s)), "structured BP file"),
    "verifier": (lambda s: npsys.parse_verifier(_read(s)), "verifier circuit file"),
    "n": (int, "word length / vertex count"),
    "t": (int, "count target"),
}


def _counting(kind: str, spec_cls, synth: str) -> Family:
    return Family(("n", "t"), lambda n, t: getattr(counting, synth)(n, t),
                  lambda n, t: (spec_cls(t), n),
                  lambda n, t: partial(counting.witness_count, kind, n, t))


def _graph(kind: str, spec_cls) -> Family:
    return Family(("n",), lambda n: (getattr(graphs, "synth_" + kind)(n), None),
                  lambda n: (spec_cls(), n * n),
                  lambda n: partial(graphs.witness_graph, kind))


def _np(variant: str, spec_cls, synth: str) -> Family:
    return Family(("verifier",), lambda v: (getattr(npsys, synth)(v), None),
                  lambda v: (spec_cls(v), v.num_x),
                  lambda v: partial(npsys.witness_np, v, variant))


def _synth_padded(v, n, variant="co-sac"):
    synth = npsys.synth_co_sac if variant == "co-sac" else npsys.synth_sac
    return synth(npsys.pad_verifier(v, n)), None


FAMILIES = {
    "regular": Family(("dfa", "n"), lambda a, n: regular.synth_regular(a, n),
                      lambda a, n: (Regular(a), n),
                      lambda a, n: partial(regular.witness_regular, a)),
    "structured": Family(("bp",), lambda bp: regular.synth_structured(bp),
                         lambda bp: (Regular(bp), bp.n),
                         lambda bp: partial(regular.witness_bp, bp)),
    **{kind: _counting(kind, cls, synth) for kind, cls, synth in (
        ("threshold", Threshold, "synth_threshold"),
        ("exact", ExactCount, "synth_exact_count"))},
    **{kind: _graph(kind, cls) for kind, cls in (
        ("cycles", Cycles), ("ustconn", USTConn), ("unreach", UnReach))},
    **{kind: _np(kind, cls, synth) for kind, cls, synth in (
        ("cosac", NpCoSac, "synth_co_sac"), ("sac", NpSac, "synth_sac"))},
    "padded": Family(("verifier", "n"), _synth_padded,
                     lambda v, n: (NpPadded(v), n),
                     lambda v, n: partial(npsys.witness_np,
                                          npsys.pad_verifier(v, n), "cosac"),
                     options=("variant",)),
}
_ALIASES = {"co-sac": "cosac"}


def _spec_syntax(kind: str) -> str:
    return ":".join([kind, *(f"<{p}>" for p in FAMILIES[kind].params)])


def _family(kind: str, *values):
    """(family, loaded parameters) from a family name and parameter strings."""
    fam = FAMILIES.get(kind)
    if fam is None:
        raise UsageError(f"unknown language family {kind!r}; expected one of "
                         f"{', '.join(FAMILIES)}")
    if len(values) != len(fam.params):
        raise UsageError(f"{kind} takes {len(fam.params)} argument(s), got "
                         f"{len(values)}: {_spec_syntax(kind)}")
    missing = [f"--{p}" for p, s in zip(fam.params, values) if s is None]
    if missing:
        raise UsageError(f"synth {kind} needs {' and '.join(missing)}")
    try:
        return fam, [_PARAMS[p][0](s) for p, s in zip(fam.params, values)]
    except ValueError as exc:
        raise UsageError(f"bad {kind} argument: {exc}") from None


# ---------------------------------------------------------------------------
# combinator expressions


def _parse_expr(text: str):
    """``union(exact(3,1),exact(3,3))`` -> ("union", [("exact", ["3", "1"]), ...])."""
    toks = re.findall(r"[\w.|/-]+|\S", text) + ["", ""]
    pos = 0

    def take(want=None) -> str:
        nonlocal pos
        tok = toks[pos]
        if tok != want and (want or not re.fullmatch(r"[\w.|/-]+", tok)):
            raise UsageError(f"expected {repr(want) if want else 'a token'} at "
                             f"token {pos}, got {tok or 'end of input'!r}")
        pos += 1
        return tok

    def call():
        name, args = take(), []
        take("(")
        while toks[pos] != ")":
            if args:
                take(",")
            args.append(call() if toks[pos + 1] == "(" else take())
        take(")")
        return name, args

    node = call()
    if toks[pos]:
        raise UsageError(f"trailing junk in expression at token {pos}")
    return node


# combinator head -> (argument kinds, circuit from its arguments): "w" is a
# plain token, "e" an expression (a call); "e+" is one or more expressions
_COMBINATORS = {
    "finite": ("w", lambda a: combinators.finite_language(a[0].split("|"))),
    "union": ("e+", lambda a: combinators.union([_build_expr(x) for x in a])),
    "reverse": ("e", lambda a: combinators.reverse(_build_expr(a[0]))),
    "upclose": ("e", lambda a: combinators.upclose(_build_expr(a[0]))),
    "morphism": ("wwe", lambda a: combinators.morphism(a[0], a[1], _build_expr(a[2]))),
    "inverse_morphism": ("wwe", lambda a: combinators.inverse_morphism(
        a[0], a[1], _build_expr(a[2]))),
    "concat_left": ("we", lambda a: combinators.concat_finite(
        a[0].split("|"), _build_expr(a[1]), side="left")),
    "concat_right": ("we", lambda a: combinators.concat_finite(
        a[0].split("|"), _build_expr(a[1]), side="right")),
}


def _check_args(name: str, kinds: str, args) -> None:
    """Refuse a combinator call whose arguments do not match ``kinds``."""
    want = str(len(kinds))
    if kinds.endswith("+"):
        want, kinds = "at least 1", kinds[:-1] * max(1, len(args))
    if len(args) != len(kinds):
        raise UsageError(f"{name} takes {want} argument(s), got {len(args)}")
    for i, (kind, arg) in enumerate(zip(kinds, args), 1):
        if kind == "w" and not isinstance(arg, str):
            raise UsageError(f"{name}: argument {i} must be a plain token, "
                             "not a call")


def _build_expr(node):
    """Evaluate an expression tree to a circuit; family names are leaves."""
    if isinstance(node, str):
        raise UsageError(f"expected a call, got bare token {node!r}")
    name, args = node
    try:
        if name in _COMBINATORS:
            kinds, build = _COMBINATORS[name]
            _check_args(name, kinds, args)
            return build(args)
        if not all(isinstance(a, str) for a in args):
            raise UsageError(f"{name}: expected plain arguments, not calls")
        fam, params = _family(name, *args)
        return fam.synth(*params)[0]
    except (ValueError, IndexError) as exc:
        raise UsageError(f"bad expression {name}(...): {exc}") from None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args) -> int:
    layout = None
    if args.expr:
        circuit = _build_expr(_parse_expr(args.expr))
    elif args.family:
        kind = _ALIASES.get(args.family, args.family)
        fam, params = _family(kind, *(getattr(args, p) for p in FAMILIES[kind].params))
        circuit, layout = fam.synth(*params,
                                    **{o: getattr(args, o) for o in fam.options})
    else:
        raise UsageError("synth needs --expr or a family")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(serialize(circuit))
    if layout is not None:
        with open(args.out + ".layout", "w", encoding="utf-8") as fh:
            fh.write(layout.to_text())
    print(f"wrote {args.out}: {circuit.num_inputs} inputs, "
          f"{circuit.num_gates} gates, {len(circuit.outputs)} outputs")
    return 0


def _cmd_eval(args) -> int:
    circuit = parse(_read(args.circuit))
    print(word_to_string(eval_circuit(circuit, args.input)))
    return 0


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    circuit = parse(_read(args.circuit))
    fam, params = _family(*args.lang.split(":"))
    spec, n = fam.spec(*params)
    if len(circuit.outputs) != n:
        raise UsageError(
            f"circuit has {len(circuit.outputs)} outputs, language expects {n}"
        )
    reports = []
    if args.mode == "exhaustive":
        reports.append(check_soundness(circuit, spec, budget=args.budget,
                                       seed=args.seed))
        reports.append(check_completeness(circuit, spec, n, budget=args.budget))
    elif args.mode == "sample":
        reports.append(check_soundness(circuit, spec, budget=0, seed=args.seed,
                                       trials=args.trials))
    elif args.mode == "witness":
        reports.append(check_completeness(circuit, spec, n,
                                          witness_fn=fam.witness(*params),
                                          budget=args.budget))
    for r in reports:
        print(render_report(r))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_stats(args) -> int:
    circuit = parse(_read(args.circuit))
    want_cones = args.bound_cone is not None or args.cones
    snap = metrics(circuit, with_cones=want_cones)
    print(f"inputs:       {circuit.num_inputs}")
    print(f"outputs:      {len(circuit.outputs)}")
    print(f"size:         {snap.size}")
    print(f"depth:        {snap.depth}")
    print(f"alternations: {snap.alternations}")
    if want_cones:
        print(f"max cone:     {snap.max_cone}")
    bounds = (args.bound_cone, args.bound_depth, args.bound_alt)
    if bounds == (None, None, None):
        return 0
    report = audit_metrics(snap, *bounds)
    print(report.machine_line())
    return 0 if report.passed else 1


def _cmd_witness(args) -> int:
    fam, params = _family(*args.lang.split(":"))
    _, n = fam.spec(*params)
    _as_bits(args.word, (n,), "word")  # wrong length or non-0/1 bits: exit 2
    fn = fam.witness(*params)
    try:
        proof = fn(args.word)
    except regular.WitnessError as exc:  # not a member; a bad encoding exits 2
        print(f"witness error: {exc}", file=sys.stderr)
        return 1
    print(word_to_string(proof))
    return 0


@cache  # one parser per process: run() may be called many times
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rangesynth",
        description="Synthesize and verify proof-system circuits "
                    "(circuits whose range is exactly a target language).",
    )
    sub = top.add_subparsers(dest="command", required=True)
    lang_help = "language spec: " + ", ".join(map(_spec_syntax, FAMILIES))

    p = sub.add_parser("synth", help="compile a language into a circuit")
    p.add_argument("family", nargs="?", choices=[*FAMILIES, *_ALIASES])
    for param, (_, text) in _PARAMS.items():
        users = [k for k, fam in FAMILIES.items() if param in fam.params]
        p.add_argument(f"--{param}", help=f"{text} ({', '.join(users)})")
    p.add_argument("--variant", choices=["sac", "co-sac"], default="co-sac",
                   help="which padded construction to emit")
    p.add_argument("--expr", help="combinator expression, e.g. "
                                  "'union(exact(3,1),exact(3,3))'")
    p.add_argument("--out", required=True, help="output circuit file")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("eval", help="evaluate a circuit on one input")
    p.add_argument("--circuit", required=True)
    p.add_argument("--input", required=True, help="proof bits as a 0/1 string")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("verify", help="run the Definition-1 harness")
    p.add_argument("--circuit", required=True)
    p.add_argument("--lang", required=True, help=lang_help)
    p.add_argument("--mode", choices=["exhaustive", "sample", "witness"],
                   default="exhaustive")
    p.add_argument("--budget", type=int, default=1 << 24)
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("stats", help="print metrics / audit structural bounds")
    p.add_argument("--circuit", required=True)
    p.add_argument("--cones", action="store_true", help="also measure cones")
    p.add_argument("--bound-cone", type=int)
    p.add_argument("--bound-depth", type=int)
    p.add_argument("--bound-alt", type=int)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("witness", help="produce a proof for a member word")
    p.add_argument("--lang", required=True, help=lang_help)
    p.add_argument("--word", required=True)
    p.set_defaults(fn=_cmd_witness)
    return top


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, CircuitError, LanguageError, regular.StructureError,
            regular.SynthesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
