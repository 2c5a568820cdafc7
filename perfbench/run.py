"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig21-cold --seed 1 --seconds 20 --trace 0

The workloads are ``fig21-cold``, ``hit-c1`` and ``routed-c32`` (see
``perfbench/NOTES.md``).  The run prints its tables,
then, as the last line of standard output, one JSON object::

    {"correct": true, "attempted": 1200, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics, and
the benchmark-side spans are written to
``perfbench/out/<workload>-seed<seed>.spans.ndjson``.  The run builds the
program from this checkout's ``src/`` and exits non-zero without a result
line when that is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _exit_on_signal(signum, frame) -> None:
    # Unwind through the ``finally`` blocks that drain the system under
    # test, which runs in its own session and would outlive a killed run.
    raise SystemExit(128 + signum)


def main() -> None:
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _exit_on_signal)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail(f"{spec_path} is missing")
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        _fail(f"imported repro from {repro.__file__}, not from this checkout")

    from perfbench import workloads
    from perfbench.spans import Tracer

    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        _fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    tracer = Tracer()
    out = workloads.run(args.workload, ROOT, args.seed, args.seconds, bool(args.trace), tracer)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = (set(out.e2e) | set(out.layers)) - set(units)
    if unknown:
        _fail(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    produced = out.layers if args.trace else out.e2e
    metrics = {}
    for m in wanted:
        value = float(produced.get(m["name"], 0.0))
        if not math.isfinite(value):
            _fail(f"{m['name']} is not finite: {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g}s, trace {args.trace}")
    for note in out.notes:
        print(f"  {note}")
    for text in out.tables:
        print()
        print(text)
    print()
    rows = [
        (name, f"{value:.6g}", f"{out.raw[name]:.6g}", units[name])
        for name, value in out.e2e.items()
    ]
    error_rate = f"{out.failed / max(1, out.attempted):.6g}"
    rows.append(("error_rate", error_rate, error_rate, "ratio"))
    print(workloads.table(
        "End-to-end metrics: value as reported (see perfbench/NOTES.md, Host speed), raw as timed"
        + (" (untraced slices)" if args.trace else ""),
        ["metric", "value", "raw", "unit"], rows,
    ))
    if args.trace:
        print()
        print(workloads.table(
            "Per-layer metrics", ["metric", "value", "unit"],
            [(k, f"{v['value']:.6g}", v["unit"]) for k, v in metrics.items()],
        ))
        print()
        print(workloads.table(
            "Benchmark-side spans: self time per layer call",
            ["span", "count", "total ms", "self ms"],
            [(n, c, f"{t:.3f}", f"{s:.3f}") for n, c, t, s in tracer.self_times()],
        ))
        path = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}.spans.ndjson"
        tracer.write_ndjson(path)
        print(f"\nspans written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": bool(out.correct),
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
