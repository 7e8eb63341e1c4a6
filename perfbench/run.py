"""Run one rangesynth benchmark workload and print its metrics.

    python3 perfbench/run.py --workload compile-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the package is imported from ``src/``.
Inputs are drawn from ``--seed``.  With ``--trace 0`` the run starts fresh
worker processes one after another until ``--seconds`` have passed; each
sets up (imports and draws the inputs) and makes one pass over the inputs.
The run reports the end-to-end metrics BENCHMARK.json lists: each timed call's
median over the passes, summed by category, and the median set-up time.
Every time is scaled to the nominal host speed that reference kernels,
timed between the calls, measure (see ``hostspeed.py``).
With ``--trace 1`` it alternates untraced and traced passes in one process,
reports the per-layer metrics, the tracing overhead and a per-function
table, and writes every span to ``.perfbench/trace-<workload>-<seed>.json``.

Every answer is checked against the benchmark's own oracles.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("compile-large", "certify-small", "nc0-graphs")
MIN_WORKERS = 3
SETUP_REFS = 7  # reference timings that scale a worker's set-up time
RUN_TIMEOUT_S = 170  # a run must end within 180 s, its workers included


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes: every workload in a few seconds")
    p.add_argument("--worker", action="store_true",
                   help="internal: set up and make one pass in this process")
    return p.parse_args(argv)


def _import_package():
    """Make ``src/`` and the benchmark importable; fail without the sources."""
    if not (ROOT / "src" / "rangesynth" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rangesynth sources under {ROOT / 'src'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        sys.exit(f"perfbench: no BENCHMARK.json in {ROOT}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _quantile(values, q: float) -> float:
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def call_scales(p) -> list:
    """Host-speed factor of each timed call of a pass.

    Call ``i`` ran between reference timings ``i`` and ``i + 1``; its factor
    comes from the median of the three timings before it and the three after.
    """
    from perfbench import hostspeed

    return [hostspeed.scale(p.refs[max(0, i - 2):i + 4], seg[3])
            for i, seg in enumerate(p.segments)]


def end_to_end(passes, setups, rss_mb) -> dict:
    """Per-call medians over the passes of scaled times, summed; see README.md."""
    from perfbench import hostspeed

    calls = len(passes[0].segments)
    scales = [call_scales(p) for p in passes]
    med = [statistics.median(p.segments[i][2] * sc[i]
                             for p, sc in zip(passes, scales))
           for i in range(calls)]
    cats = passes[0].segments
    total = lambda pick: sum(m for m, seg in zip(med, cats) if pick(seg))
    # time between the calls, less the reference timings made there
    glue = statistics.median(
        (p.wall_s - sum(seg[2] for seg in p.segments)
         - sum(a + b for a, b in p.refs[:-1]))
        * hostspeed.scale(p.refs) for p in passes)
    lat = [x * sc[i] for p, sc in zip(passes, scales)
           for x, i in zip(p.witness_s, p.witness_seg)]
    first = passes[0]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(med) + glue,
        "compile_s": total(lambda seg: seg[0] == "compile"),
        "certify_s": total(lambda seg: seg[0] == "certify"),
        "proofs_per_s": first.sound_trials / total(lambda seg: seg[1] == "sound"),
        "members_per_s": first.members / total(lambda seg: seg[1] == "complete"),
        "witness_ms.p50": statistics.median(lat) * 1e3,
        "witness_ms.p99": _quantile(lat, 0.99) * 1e3 if len(lat) >= 1000 else None,
        "gates": first.gates,
        "depth": first.depth,
        "alternations": first.alternations,
        "max_cone": first.max_cone or None,
        "peak_rss_mb": max(rss_mb),
    }


def _scaled_wall(passes) -> float:
    """Median pass time, scaled to nominal host speed."""
    from perfbench import hostspeed

    return statistics.median(p.wall_s * hostspeed.scale(p.refs) for p in passes)


def per_layer(tracer, traced, untraced) -> dict:
    """Per-pass means of every traced function's time, calls and counts."""
    k = len(traced)
    out = {}
    for name, st in tracer.stats.items():
        out[f"{name}.s"] = st.s / k
        out[f"{name}.self_s"] = st.self_s / k
        out[f"{name}.calls"] = st.calls / k
        for key, val in st.counts.items():
            out[f"{name}.{key}"] = val / k
            out[f"{name}.{key}_per_s"] = val / st.s if st.s else 0.0
        if st.max:
            out[f"{name}.max_cone"] = st.max
    out["trace.overhead_s"] = _scaled_wall(traced) - _scaled_wall(untraced)
    out["trace.spans"] = len(tracer.spans) / k
    return out


def _print_table(title: str, rows):
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<44} {value:>16.6g} {unit}")


def _trace_report(tracer, layer: dict, passes: int):
    rows = sorted(tracer.stats.items(), key=lambda kv: -kv[1].s)
    print("per-layer trace (per pass):")
    print(f"  {'function':<34} {'calls':>10} {'s':>10} {'self_s':>10}  counts")
    for name, st in rows:
        counts = " ".join(f"{key}={val / passes:.0f}" for key, val in st.counts.items())
        print(f"  {name:<34} {st.calls / passes:>10.0f} {st.s / passes:>10.4f} "
              f"{st.self_s / passes:>10.4f}  {counts}")
    ratios = [
        ("circuit.alternations.calls", "cli.stats.calls"),
        ("circuit.gate_depths.calls", "cli.stats.calls"),
        ("circuit.parse.calls", "cli.verify.calls"),
        ("circuit.eval_batch.rows", "circuit.eval_batch.calls"),
        ("circuit.lower_fields.calls", "regular.synth_regular.calls"),
        ("graphs.triangle_basis.calls", "graphs.witness_graph.calls"),
        ("graphs.decompose_cycles.calls", "graphs.witness_graph.calls"),
        ("languages.member_batch.words", "verify.check_soundness.trials"),
    ]
    print("ratios (numerator / base, per pass):")
    for num, base in ratios:
        a, b = layer.get(num, 0), layer.get(base, 0)
        text = f"{a / b:.3f}" if b else "n/a"
        print(f"  {num} / {base} = {text}  ({a:.0f} / {b:.0f})")


def _write_spans(tracer, path: Path, t0: float):
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    spans = [[index[n], a - t0, b - t0, parent] for n, a, b, parent in tracer.spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                   "names": names, "spans": spans}, fh)


def _run_all(args) -> int:
    """Every workload in turn, each run as its own command."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        print(f"== {name}", flush=True)
        code |= subprocess.run(cmd, cwd=ROOT).returncode
    return code


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _same_structure(passes) -> bool:
    """Every pass over the same inputs makes the same calls and circuits."""
    key = lambda p: ([seg[:2] for seg in p.segments], p.gates, p.depth,
                     p.alternations, p.max_cone, p.sound_trials, p.members)
    return all(key(p) == key(passes[0]) for p in passes)


@contextlib.contextmanager
def _workdir():
    """Scratch directory for the files CLI calls write, removed afterwards."""
    path = ROOT / ".perfbench" / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _tally(passes):
    """Operations and disagreements, counting the same-structure check."""
    for msg in (m for p in passes for m in p.messages):
        print(f"MISMATCH {msg}")
    attempted = sum(p.ops for p in passes) + 1
    failed = sum(p.failed for p in passes) + (not _same_structure(passes))
    return attempted, failed


def _print_result(attempted: int, failed: int, metrics: dict):
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def _one_pass(inputs, run_pass, workdir: Path, tracer=None):
    from perfbench import hostspeed
    from perfbench.recorder import Pass

    rec = Pass(str(workdir))
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        run_pass(inputs, rec)
    finally:
        rec.wall_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    rec.refs.append(hostspeed.reference_s())
    return rec


def _worker(args, make, run_pass) -> int:
    """One fresh process: set up, make one pass, print what it measured."""
    from perfbench import hostspeed

    inputs = make(args.seed, args.tiny)
    ready = time.time()
    hostspeed.reference_s()  # warm-up
    setup_refs = [hostspeed.reference_s() for _ in range(SETUP_REFS)]
    with _workdir() as workdir:
        rec = _one_pass(inputs, run_pass, workdir)
    print(json.dumps({"ready": ready, "setup_refs": setup_refs,
                      "rss_mb": _rss_mb(), "pass": rec.to_json()}))
    return 0


def _timed_run(args, spec) -> int:
    """Fresh worker processes, one pass each, until the time is up.

    On a shared 2-core host the speed of one process differs from the next
    by several percent and drifts over minutes, so a run samples many
    processes rather than many passes in one.  Each worker's set-up, from
    its start to its inputs being ready, is one set-up sample.
    """
    from perfbench import hostspeed
    from perfbench.recorder import Pass

    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--tiny"] if args.tiny else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    passes, setups, raw_setups, rss = [], [], [], []
    t_begin = time.perf_counter()
    while len(passes) < MIN_WORKERS or time.perf_counter() - t_begin < args.seconds:
        spawned = time.time()
        left = RUN_TIMEOUT_S - (time.perf_counter() - t_begin)
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, left))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        out = json.loads(proc.stdout.splitlines()[-1])
        raw_setups.append(out["ready"] - spawned)
        setups.append(raw_setups[-1] * hostspeed.scale(out["setup_refs"]))
        rss.append(out["rss_mb"])
        passes.append(Pass.from_json(out["pass"]))

    attempted, failed = _tally(passes)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes in "
          f"fresh processes, {attempted} operations, {failed} failed")
    print("  pass wall_s, unscaled: " + " ".join(f"{p.wall_s:.3f}" for p in passes))
    print("  set-up s, unscaled:    " + " ".join(f"{x:.3f}" for x in raw_setups))
    print("  host speed (nominal reference / median reference per pass): "
          + " ".join(f"{hostspeed.scale(p.refs):.3f}" for p in passes))
    e2e = end_to_end(passes, setups, rss)
    units = {"witness_ms.p99": "ms", "max_cone": "count"}
    units.update((m["name"], m["unit"]) for m in spec["end_to_end"])
    _print_table("end-to-end (per-call medians over the passes, scaled to "
                 "nominal host speed):", [
        (name, value, units[name])
        for name, value in e2e.items() if value is not None]
        + [("ops", attempted, "count"), ("ops_failed", failed, "count")])
    _print_result(attempted, failed, {
        m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
        for m in spec["end_to_end"]})
    return 0


def _traced_run(args, spec, make, run_pass) -> int:
    """Alternate untraced and traced passes in this process."""
    from perfbench.tracer import Tracer

    inputs = make(args.seed, args.tiny)
    tracer = Tracer()
    untraced, traced = [], []
    t_begin = time.perf_counter()
    with _workdir() as workdir:
        while not traced or time.perf_counter() - t_begin < args.seconds:
            use_trace = len(untraced) > len(traced)
            rec = _one_pass(inputs, run_pass, workdir, tracer if use_trace else None)
            (traced if use_trace else untraced).append(rec)

    attempted, failed = _tally(untraced + traced)
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced "
          f"and {len(traced)} traced passes, {attempted} operations, {failed} failed")
    for label, group in (("untraced", untraced), ("traced", traced)):
        print(f"  {label} pass wall_s: " + " ".join(f"{p.wall_s:.3f}" for p in group))
    values = per_layer(tracer, traced, untraced)
    print(f"tracing overhead: {values['trace.overhead_s']:.4f} s per pass "
          f"({values['trace.spans']:.0f} spans per pass)")
    _trace_report(tracer, values, len(traced))
    _write_spans(tracer, ROOT / ".perfbench" /
                 f"trace-{args.workload}-{args.seed}.json", t_begin)
    # a layer function the workload never calls reports 0
    _print_result(attempted, failed, {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in spec["per_layer"]})
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    if args.workload == "all":
        return _run_all(args)
    _import_package()
    from perfbench import workloads

    make, run_pass = workloads.WORKLOADS[args.workload]
    if args.worker:
        return _worker(args, make, run_pass)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        return _traced_run(args, spec, make, run_pass)
    return _timed_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
