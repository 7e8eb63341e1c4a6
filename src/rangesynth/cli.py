"""Command-line front end: synth, eval, verify, stats, witness.

Language specs on the command line use a colon mini-syntax:
``regular:<dfa-file>:<n>``, ``structured:<bp-file>``, ``threshold:<n>:<t>``,
``exact:<n>:<t>``, ``cycles:<n>``, ``ustconn:<n>``, ``unreach:<n>``,
``cosac:<verifier-file>``, ``sac:<verifier-file>``,
``padded:<verifier-file>:<n>``.  Exit codes: 0 pass, 1 verification failure,
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys

from . import combinators, counting, graphs, npsys, regular
from .circuit import CircuitError, _as_bits, eval_circuit, metrics, parse, serialize
from .languages import (
    Cycles, ExactCount, LanguageError, NpCoSac, NpPadded, NpSac, Regular,
    Threshold, UnReach, USTConn, parse_dfa,
)
from .verify import check_completeness, check_soundness, locality_audit, render_report


class UsageError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _parse_lang(text: str):
    """Spec string -> (language spec usable by member, expected length)."""
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "regular" and len(parts) == 3:
            return Regular(parse_dfa(_read(parts[1]))), int(parts[2])
        if kind == "threshold" and len(parts) == 3:
            return Threshold(int(parts[2])), int(parts[1])
        if kind == "exact" and len(parts) == 3:
            return ExactCount(int(parts[2])), int(parts[1])
        if kind == "cycles" and len(parts) == 2:
            n = int(parts[1])
            return Cycles(), n * n
        if kind == "ustconn" and len(parts) == 2:
            n = int(parts[1])
            return USTConn(), n * n
        if kind == "unreach" and len(parts) == 2:
            n = int(parts[1])
            return UnReach(), n * n
        if kind in ("cosac", "sac") and len(parts) == 2:
            v = npsys.parse_verifier(_read(parts[1]))
            spec = NpCoSac(v) if kind == "cosac" else NpSac(v)
            return spec, v.num_x
        if kind == "padded" and len(parts) == 3:
            v = npsys.parse_verifier(_read(parts[1]))
            return NpPadded(v), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad language spec {text!r}: {exc}") from None
    raise UsageError(f"unrecognized language spec {text!r}")


# ---------------------------------------------------------------------------
# combinator expressions


class _ExprParser:
    """Recursive-descent parser for `union(exact(3,1),exact(3,3))` forms."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def parse(self):
        node = self._expr()
        self._ws()
        if self.pos != len(self.text):
            raise UsageError(f"trailing junk in expression at {self.pos}")
        return node

    def _ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _expect(self, ch: str):
        self._ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise UsageError(f"expected {ch!r} at position {self.pos}")
        self.pos += 1

    def _atom(self) -> str:
        self._ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "._-|/"
        ):
            self.pos += 1
        if start == self.pos:
            raise UsageError(f"expected a token at position {self.pos}")
        return self.text[start : self.pos]

    def _expr(self):
        name = self._atom()
        self._expect("(")
        args = []
        self._ws()
        if self.text[self.pos : self.pos + 1] != ")":
            while True:
                self._ws()
                nxt = self.pos
                # lookahead: nested call or plain token?
                probe = _ExprParser(self.text)
                probe.pos = nxt
                tok = probe._atom()
                probe._ws()
                if probe.text[probe.pos : probe.pos + 1] == "(":
                    args.append(self._expr())
                else:
                    self.pos = probe.pos
                    args.append(tok)
                self._ws()
                if self.text[self.pos : self.pos + 1] == ",":
                    self.pos += 1
                    continue
                break
        self._expect(")")
        return (name, args)


def _build_expr(node):
    """Evaluate an expression tree to a circuit."""
    if isinstance(node, str):
        raise UsageError(f"expected a call, got bare token {node!r}")
    name, args = node

    def circ(a):
        return _build_expr(a)

    def intarg(a):
        if not isinstance(a, str):
            raise UsageError(f"{name}: expected an integer argument")
        return int(a)

    try:
        if name == "threshold":
            return counting.synth_threshold(intarg(args[0]), intarg(args[1]))[0]
        if name == "exact":
            return counting.synth_exact_count(intarg(args[0]), intarg(args[1]))[0]
        if name == "cycles":
            return graphs.synth_cycles(intarg(args[0]))
        if name == "ustconn":
            return graphs.synth_ustconn(intarg(args[0]))
        if name == "unreach":
            return graphs.synth_unreach(intarg(args[0]))
        if name == "regular":
            return regular.synth_regular(parse_dfa(_read(args[0])), intarg(args[1]))[0]
        if name == "finite":
            return combinators.finite_language(args[0].split("|"))
        if name == "union":
            return combinators.union([circ(a) for a in args])
        if name == "reverse":
            return combinators.reverse(circ(args[0]))
        if name == "upclose":
            return combinators.upclose(circ(args[0]))
        if name == "morphism":
            return combinators.morphism(args[0], args[1], circ(args[2]))
        if name == "inverse_morphism":
            return combinators.inverse_morphism(args[0], args[1], circ(args[2]))
        if name in ("concat_left", "concat_right"):
            return combinators.concat_finite(
                args[0].split("|"), circ(args[1]), side=name.split("_")[1]
            )
    except (ValueError, IndexError) as exc:
        raise UsageError(f"bad expression {name}(...): {exc}") from None
    raise UsageError(f"unknown expression head {name!r}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args) -> int:
    layout = None
    if args.expr:
        circuit = _build_expr(_ExprParser(args.expr).parse())
    elif args.family == "regular":
        circuit, layout = regular.synth_regular(parse_dfa(_read(args.dfa)), args.n)
    elif args.family == "structured":
        circuit, layout = regular.synth_structured(regular.parse_bp(_read(args.bp)))
    elif args.family == "threshold":
        circuit, layout = counting.synth_threshold(args.n, args.t)
    elif args.family == "exact":
        circuit, layout = counting.synth_exact_count(args.n, args.t)
    elif args.family == "cycles":
        circuit = graphs.synth_cycles(args.n)
    elif args.family == "ustconn":
        circuit = graphs.synth_ustconn(args.n)
    elif args.family == "unreach":
        circuit = graphs.synth_unreach(args.n)
    elif args.family == "co-sac":
        circuit = npsys.synth_co_sac(npsys.parse_verifier(_read(args.verifier)))
    elif args.family == "sac":
        circuit = npsys.synth_sac(npsys.parse_verifier(_read(args.verifier)))
    elif args.family == "padded":
        sac_c, cosac_c = npsys.pad_language(
            npsys.parse_verifier(_read(args.verifier)), args.n
        )
        circuit = cosac_c if args.variant == "co-sac" else sac_c
    else:
        raise UsageError("synth needs --expr or a --family")
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
    out = eval_circuit(circuit, args.input)
    print("".join(str(b) for b in out))
    return 0


def _cmd_verify(args) -> int:
    circuit = parse(_read(args.circuit))
    spec, n = _parse_lang(args.lang)
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
        witness_fn = _witness_fn_for(args.lang)
        reports.append(check_completeness(circuit, spec, n, witness_fn=witness_fn,
                                          budget=args.budget))
    for r in reports:
        print(render_report(r))
    return 0 if all(r.passed for r in reports) else 1


def _witness_fn_for(lang: str):
    parts = lang.split(":")
    kind = parts[0]
    if kind == "regular":
        automaton = parse_dfa(_read(parts[1]))
        return lambda w: regular.witness_regular(automaton, w)
    if kind in ("threshold", "exact"):
        n, t = int(parts[1]), int(parts[2])
        return lambda w: counting.witness_count(kind, n, t, w)
    if kind in ("cycles", "ustconn", "unreach"):
        return lambda w: graphs.witness_graph(kind, w)
    raise UsageError(f"no witness generator for language {lang!r}")


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
    report = locality_audit(
        circuit, max_cone=args.bound_cone, max_depth=args.bound_depth,
        max_alternations=args.bound_alt,
    )
    if args.bound_cone is not None or args.bound_depth is not None \
            or args.bound_alt is not None:
        print(report.machine_line())
        return 0 if report.passed else 1
    return 0


def _cmd_witness(args) -> int:
    spec, n = _parse_lang(args.lang)
    _as_bits(args.word, n, "word")  # wrong length or non-0/1 bits: exit 2
    fn = _witness_fn_for(args.lang)
    try:
        proof = fn(args.word)
    except ValueError as exc:
        print(f"witness error: {exc}", file=sys.stderr)
        return 1
    print("".join(str(int(b)) for b in proof))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rangesynth",
        description="Synthesize and verify proof-system circuits "
                    "(circuits whose range is exactly a target language).",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="compile a language into a circuit")
    p.add_argument("family", nargs="?", choices=[
        "regular", "structured", "threshold", "exact", "cycles", "ustconn",
        "unreach", "co-sac", "sac", "padded",
    ])
    p.add_argument("--dfa", help="automaton file (regular)")
    p.add_argument("--bp", help="structured BP file (structured)")
    p.add_argument("--verifier", help="verifier circuit file (sac/co-sac/padded)")
    p.add_argument("--n", type=int, help="word length / vertex count")
    p.add_argument("--t", type=int, help="count target (threshold/exact)")
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
    p.add_argument("--lang", required=True, help="language spec (see --help)")
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
    p.add_argument("--lang", required=True)
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
