"""The workloads: what each sends, how it is timed, what it checks.

Every workload returns an :class:`Outcome` holding the six end-to-end
metrics, the per-layer metrics (only filled in by a traced run), the
request counts and the human-readable tables the run prints.  Timing
windows never include checking: correctness is established after the
window, against cold ``partition_bisection`` and the optimality
certificate, and every mismatch counts as a failed request.
"""

from __future__ import annotations

import asyncio
import gc
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checks, inputs, layers
from .hostspeed import AFTER_WINDOW_S, CALLS_PER_PASS, CALLS_PER_SETUP, HostSpeed
from .layers import quantile
from .spans import Tracer
from .sut import CommandHost, Connection, histogram_delta, scrape, vm_hwm_mb

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: A traced run alternates untraced and traced slices of this many.
TRACE_SLICES = 8
#: Distinct plans per served run that also get the full certificate
#: (about 0.1 s each at p=1080); bit-identity covers every distinct plan.
CERT_SAMPLE = 24
#: ``fig21-cold`` keeps solving whole passes past ``--seconds`` until it
#: has this many samples, so at least ten lie beyond its p99.
MIN_SOLVES = 1000
#: Per-request timeout; a request that takes longer counts as failed.
REQUEST_TIMEOUT_S = 30.0

@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    e2e: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    tables: list = field(default_factory=list)
    notes: list = field(default_factory=list)


#: The timed end-to-end metrics of a workload whose every second is CPU work.
CPU_BOUND = ("latency_p50_ms", "latency_p99_ms", "throughput_per_s", "setup_s")


@dataclass(frozen=True)
class Served:
    """A served workload: how the system is hosted and what it is sent."""

    argv: tuple
    inflight: int
    connections: int
    hot: int
    zipf_s: float | None = None
    fresh_share: float = 0.0
    observe_share: float = 0.0
    routed: bool = False
    #: End-to-end metrics reported at reference host speed.
    scaled: tuple = CPU_BOUND


SERVED = {
    # One idle caller waits mostly on the 2 ms batch window, a timer that
    # does not run faster on a faster host; only its set-up is CPU work.
    "hit-c1": Served(("serve",), inflight=1, connections=1, hot=16, scaled=("setup_s",)),
    "routed-c32": Served(
        ("cluster", "up", "--nodes", "2", "--replication", "2"),
        inflight=32, connections=2, hot=64,
        zipf_s=1.0, fresh_share=0.20, observe_share=0.05, routed=True,
    ),
}

def stream_for(spec: Served, seed: int, sfs: list) -> inputs.RequestStream:
    return inputs.RequestStream(
        seed, inputs.hot_set(seed, spec.hot), zipf_s=spec.zipf_s,
        fresh_share=spec.fresh_share, observe_share=spec.observe_share,
        speed_functions=sfs,
    )


def _slice_traced(elapsed: float, seconds: float, trace: bool) -> bool:
    return trace and int(elapsed / (seconds / TRACE_SLICES)) % 2 == 1


def _at_reference_speed(raw: dict, speed: HostSpeed, scaled: tuple) -> dict:
    """``raw`` with the ``scaled`` metrics at reference host speed: times
    divided by the host factor, the rate multiplied by it."""
    f = speed.factor()
    out = dict(raw)
    for name in scaled:
        out[name] = raw[name] * f if name == "throughput_per_s" else raw[name] / f
    return out


def _overhead_pct(untraced, traced) -> float:
    base = quantile(untraced, 0.5)
    return 0.0 if not base or not traced else (quantile(traced, 0.5) - base) / base * 100.0


# ---------------------------------------------------------------------------
# fig21-cold
# ---------------------------------------------------------------------------


def fig21_cold(root: Path, seed: int, seconds: float, trace: bool, tracer: Tracer) -> Outcome:
    """Cold ``repro.partition`` (bisection) over the paper's Fig. 21 grid.

    Whole passes over the 16-point grid, each in a seeded order; the
    window closes at the first pass boundary after ``seconds`` (and
    ``MIN_SOLVES``), so every grid point is solved equally often.  A
    traced run alternates traced and untraced passes, and its end-to-end
    numbers come from the untraced ones.
    """
    from repro import partition
    from repro.verify.certificate import check_allocation

    out = Outcome()
    speed = HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        models = inputs.table2_models()
        fleets = {p: inputs.tiled_fleet(models, p, seed) for p in inputs.FIG21_PS}
        for p, n in inputs.FIG21_GRID:
            partition(n, fleets[p], algorithm="bisection")
        setups.append(time.perf_counter() - t0)
        speed.sample(CALLS_PER_SETUP)

    samples: dict[tuple, list] = {pt: [] for pt in inputs.FIG21_GRID}
    first: dict[tuple, object] = {}
    traced_ns: list = []
    untraced_ns: list = []
    steps, mismatched = [], Counter()
    order_rng = inputs.rng_for(seed, inputs.TAG_ORDER)
    grid = inputs.FIG21_GRID
    start = time.perf_counter()
    deadline = start + seconds
    passes = 0
    ref_s = 0.0
    while time.perf_counter() < deadline or len(untraced_ns) + len(traced_ns) < MIN_SOLVES:
        traced = trace and passes % 2 == 1
        pass_span = tracer.begin("bench.pass") if traced else 0
        for i in order_rng.permutation(len(grid)):
            p, n = grid[i]
            t0 = time.perf_counter_ns()
            res = partition(n, fleets[p], algorithm="bisection")
            t1 = time.perf_counter_ns()
            (traced_ns if traced else untraced_ns).append(t1 - t0)
            samples[(p, n)].append(t1 - t0)
            if traced:
                tracer.record("core.partition", t0, t1, pass_span, f"p{p}.n{n}")
            steps.append(res.iterations)
            ref = first.setdefault((p, n), res)
            if ref is not res and not (
                res.makespan == ref.makespan and np.array_equal(res.allocation, ref.allocation)
            ):
                mismatched[(p, n)] += 1
        if traced:
            tracer.end(pass_span)
        passes += 1
        t0 = time.perf_counter()
        speed.sample(CALLS_PER_PASS)
        ref_s += time.perf_counter() - t0
    elapsed = time.perf_counter() - start - ref_s
    solves = sum(len(v) for v in samples.values())
    out.attempted = solves

    # -- checks (outside the window) -----------------------------------
    failed_points = set(mismatched)
    for (p, n), res in first.items():
        report = check_allocation(res.allocation, fleets[p], n=n, makespan=res.makespan)
        if not report.ok or int(res.allocation.sum()) != n:
            failed_points.add((p, n))
            out.notes.append(f"p={p} n={n}: {report.summary()}")
    medians = {pt: quantile(v, 0.5) / 1e9 for pt, v in samples.items()}
    for pt, sec in medians.items():
        if sec >= 1.0:
            failed_points.add(pt)
            out.notes.append(f"p={pt[0]} n={pt[1]}: cost {sec:.3f}s is not below 1 s")
    total = {p: sum(s for (pp, _), s in medians.items() if pp == p) for p in inputs.FIG21_PS}
    if not total[1080] > total[270]:
        failed_points.update(pt for pt in medians if pt[0] in (270, 1080))
        out.notes.append("total cost at p=1080 is not above p=270")
    out.failed = sum(len(samples[pt]) for pt in failed_points)
    out.correct = not failed_points

    out.raw = {
        "latency_p50_ms": quantile(untraced_ns, 0.5) / 1e6,
        "latency_p99_ms": quantile(untraced_ns, 0.99) / 1e6,
        "throughput_per_s": solves / elapsed,
        "success_rate": 1.0 - out.failed / max(1, out.attempted),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": vm_hwm_mb(os.getpid()),
    }
    out.e2e = _at_reference_speed(out.raw, speed, CPU_BOUND)
    rows = []
    for p in inputs.FIG21_PS:
        rows.append([f"p={p}"] + [f"{medians[(p, n)] * 1e3:.2f}" for n in inputs.FIG21_NS])
    out.tables.append(table(
        "Fig. 21 cost grid: median cold partition (bisection) time in ms",
        ["", *(f"n={n:.3g}" for n in inputs.FIG21_NS)], rows,
    ))
    out.notes.append(f"{passes} passes, {solves} solves in {elapsed:.2f}s")
    if trace:
        lay = {}
        spans = [s for s in tracer.spans if s[1] == "core.partition"]
        by_p = {p: [] for p in inputs.FIG21_PS}
        by_pt = {pt: [] for pt in samples}
        for _, _, s, e, _, rid in spans:
            p, n = (int(x[1:]) for x in rid.split("."))
            by_p[p].append(e - s)
            by_pt[(p, n)].append(e - s)
        for p in inputs.FIG21_PS:
            lay[f"core.solve_ms.p{p}"] = quantile(by_p[p], 0.5) / 1e6
            for n in inputs.FIG21_NS:
                lay[layers.fig21_name(p, n)] = quantile(by_pt[(p, n)], 0.5) / 1e6
        lay["core.bisection_steps"] = float(np.mean(steps))
        lay["latency_p99_ms"] = out.e2e["latency_p99_ms"]
        lay["obs.bench_tracing_overhead_pct"] = _overhead_pct(untraced_ns, traced_ns)
        lay["host.ref_ms"] = speed.ref_ms()
        out.layers = lay
    return out


# ---------------------------------------------------------------------------
# Served workloads
# ---------------------------------------------------------------------------


class Ledger:
    """What the callers saw during the window."""

    def __init__(self):
        self.lat = {False: [], True: []}
        self.sent = 0
        self.plans_ok = 0
        self.done_at: list[int] = []
        self.errors: Counter = Counter()
        self.first: dict[int, tuple[float, np.ndarray]] = {}
        self.answers: Counter = Counter()
        self.mismatched: Counter = Counter()
        self.frames: list[tuple[bytes, bytes]] = []


async def _register(conn: Connection, records: list, hot: list[int]) -> str:
    info = await conn.call(
        "register_fleet", name=f"bench-p{len(records)}", speed_functions=records,
        algorithm="bisection", options={}, cache_size=1024,
    )
    fp = info["fingerprint"]
    warm = await conn.call("plan_many", fleet=fp, ns=hot, allocation=False)
    bad = [item for item in warm["results"] if not item.get("ok")]
    if bad:
        raise RuntimeError(f"pre-warm failed: {bad[:2]}")
    return fp


def _boot(root: Path, spec: Served, seed: int) -> tuple[CommandHost, str, list, float]:
    """One set-up: build the models, boot the command, register, pre-warm."""
    from repro.io import speed_function_to_dict

    t0 = time.perf_counter()
    sfs = inputs.tiled_fleet(inputs.table2_models(), inputs.SERVED_P, seed)
    records = [speed_function_to_dict(sf) for sf in sfs]
    host = CommandHost(root, [*spec.argv, "--port", "0", "--http-port", "0"])
    try:
        async def go() -> str:
            conn = await Connection.open(host.host, host.port)
            try:
                return await _register(conn, records, inputs.hot_set(seed, spec.hot))
            finally:
                await conn.close()

        fp = asyncio.run(go())
    except BaseException:
        host.stop()
        raise
    return host, fp, sfs, time.perf_counter() - t0


async def _closed_loop(
    host: CommandHost, spec: Served, fp: str, stream, seconds: float,
    trace: bool, tracer: Tracer,
) -> tuple[Ledger, float, dict, dict]:
    """``spec.inflight`` callers, each waiting for its answer before the next."""
    conns = [await Connection.open(host.host, host.port) for _ in range(spec.connections)]
    ledger = Ledger()
    p = inputs.SERVED_P
    try:
        before = await _snapshot(conns[0], host, spec)
        start = time.perf_counter()
        deadline = start + seconds
        window_span = tracer.begin("bench.window") if trace else 0

        async def caller(idx: int) -> None:
            conn = conns[idx % len(conns)]
            while True:
                now = time.perf_counter()
                if now >= deadline:
                    return
                op, arg = next(stream)
                traced = _slice_traced(now - start, seconds, trace)
                if op == "plan":
                    frame = {"op": "plan", "fleet": fp, "n": arg, "allocation": True}
                else:
                    frame = {"op": "observe", "fleet": fp, "observations": arg}
                ledger.sent += 1
                t0 = time.perf_counter_ns()
                try:
                    obj, req_line, resp_line = await conn.send(frame, REQUEST_TIMEOUT_S)
                except asyncio.TimeoutError:
                    ledger.errors["timeout"] += 1
                    continue
                except ConnectionError:
                    ledger.errors["disconnected"] += 1
                    return
                t1 = time.perf_counter_ns()
                ledger.lat[traced].append(t1 - t0)
                if traced:
                    tracer.record(f"client.{op}", t0, t1, window_span, obj.get("id"))
                    if len(ledger.frames) < 64:
                        ledger.frames.append((req_line, resp_line))
                if not obj.get("ok"):
                    ledger.errors[(obj.get("error") or {}).get("code", "internal")] += 1
                    continue
                result = obj["result"]
                if op == "observe":
                    if result.get("accepted") != len(arg):
                        ledger.errors["observe_not_accepted"] += 1
                    continue
                alloc = result.get("allocation")
                if result.get("n") != arg or alloc is None or len(alloc) != p:
                    ledger.errors["malformed_plan"] += 1
                    continue
                ledger.plans_ok += 1
                ledger.done_at.append(t1)
                ledger.answers[arg] += 1
                plan = (result["makespan"], np.asarray(alloc, dtype=np.int64))
                ref = ledger.first.setdefault(arg, plan)
                if ref is not plan and not (
                    ref[0] == plan[0] and np.array_equal(ref[1], plan[1])
                ):
                    ledger.mismatched[arg] += 1

        tasks = [asyncio.ensure_future(caller(i)) for i in range(spec.inflight)]
        gc.collect()
        gc.disable()
        try:
            await asyncio.gather(*tasks)
        finally:
            gc.enable()
        elapsed = time.perf_counter() - start
        if trace:
            tracer.end(window_span)
        after = await _snapshot(conns[0], host, spec)
    finally:
        for conn in conns:
            await conn.close()
    return ledger, elapsed, before, after


async def _snapshot(conn: Connection, host: CommandHost, spec: Served) -> dict:
    """Counters from the ``stats`` op and ``/metrics`` of every process."""
    stats = await conn.call("stats")
    snap = {"stats": stats, "front": scrape(host.host, host.http_port), "nodes": []}
    if spec.routed:
        status = await conn.call("cluster_status")
        snap["members"] = status["nodes"]
        snap["nodes"] = [
            scrape(node["host"], node["http_port"]) for node in status["nodes"]
        ]
    else:
        snap["nodes"] = [snap["front"]]
    return snap


def _planner_counters(snap: dict, spec: Served, fp: str) -> Counter:
    services = (
        [s for s in snap["stats"]["nodes"].values() if s.get("ok")]
        if spec.routed else [snap["stats"]]
    )
    total: Counter = Counter()
    for svc in services:
        total["shed"] += svc.get("shed", 0)
        for shard in svc.get("shards", []):
            fleet = shard.get("fleets", {}).get(fp)
            if fleet:
                for key in ("cache_hits", "cache_misses", "cold_plans", "warm_plans"):
                    total[key] += fleet[key]
    if spec.routed:
        total["fallbacks"] = snap["stats"]["router"]["routed_fallback"]
    return total


def _data_ops(metrics: dict) -> dict:
    """Only the ``plan`` / ``observe`` series of a scrape."""
    return {
        k: v for k, v in metrics.items()
        if 'op="plan"' in k[1] or 'op="observe"' in k[1]
    }


def _mean_ms(before: list, after: list, name: str) -> float:
    total_sum = total_count = 0.0
    for b, a in zip(before, after):
        s, c = histogram_delta(_data_ops(b), _data_ops(a), name)
        total_sum += s
        total_count += c
    return total_sum / total_count * 1e3 if total_count else 0.0


def served(name: str, root: Path, seed: int, seconds: float, trace: bool, tracer: Tracer) -> Outcome:
    from repro import Fleet

    spec = SERVED[name]
    out = Outcome()
    speed = HostSpeed()
    setups = []
    host = None
    try:
        for i in range(SETUP_REPEATS):
            host, fp, sfs, took = _boot(root, spec, seed)
            setups.append(took)
            if i < SETUP_REPEATS - 1:
                host.stop()
                host = None
                speed.sample(CALLS_PER_SETUP)
        stream = stream_for(spec, seed, sfs)
        ledger, elapsed, before, after = asyncio.run(
            _closed_loop(host, spec, fp, stream, seconds, trace, tracer)
        )
        rss = host.peak_rss_mb()
    finally:
        if host is not None:
            host.stop()
    speed.sample_for(AFTER_WINDOW_S)

    # -- checks (outside the window) -----------------------------------
    local_fp = Fleet(sfs).fingerprint
    if local_fp != fp:
        raise RuntimeError(f"served fingerprint {fp} differs from the local {local_fp}")
    distinct = sorted(ledger.first)
    certify = set(
        distinct if len(distinct) <= CERT_SAMPLE
        else inputs.rng_for(seed, inputs.TAG_CERT).choice(distinct, CERT_SAMPLE, replace=False).tolist()
    )
    bad = Counter(ledger.mismatched)
    for n, reason in checks.failures(seed, inputs.SERVED_P, ledger.first, certify):
        bad[n] = ledger.answers[n]
        out.notes.append(f"n={n}: {reason}")
    out.attempted = ledger.sent
    out.failed = sum(ledger.errors.values()) + sum(bad.values())
    out.correct = not bad
    untraced = ledger.lat[False]
    out.raw = {
        "latency_p50_ms": quantile(untraced, 0.5) / 1e6,
        "latency_p99_ms": quantile(untraced, 0.99) / 1e6,
        "throughput_per_s": ledger.plans_ok / elapsed,
        "success_rate": 1.0 - out.failed / max(1, out.attempted),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    out.e2e = _at_reference_speed(out.raw, speed, spec.scaled)
    c0, c1 = _planner_counters(before, spec, fp), _planner_counters(after, spec, fp)
    d = Counter({k: c1[k] - c0[k] for k in c1})
    lookups = d["cache_hits"] + d["cache_misses"]
    computed = d["cold_plans"] + d["warm_plans"]
    counters = {
        "cache_hit_ratio": d["cache_hits"] / lookups if lookups else 0.0,
        "warm_rate": d["warm_plans"] / computed if computed else 0.0,
        "shed": float(d["shed"]),
        "fallbacks": float(d["fallbacks"]),
    }
    out.notes.append(
        f"{ledger.sent} requests ({ledger.plans_ok} plans ok, {len(ledger.first)} distinct sizes) "
        f"in {elapsed:.2f}s; errors {dict(ledger.errors) or 'none'}; "
        f"served cache hit ratio {counters['cache_hit_ratio']:.3f}, "
        f"warm rate {counters['warm_rate']:.3f}; {len(certify)} plans certificate-checked"
    )
    t_first = ledger.done_at[0] if ledger.done_at else 0
    per_s = Counter(int((t - t_first) / 1e9) for t in ledger.done_at)
    out.notes.append("plans per second: " + " ".join(str(per_s[k]) for k in sorted(per_s)))
    if trace:
        server_ms = _mean_ms(before["nodes"], after["nodes"], "serve_request_seconds")
        batch_sum, batch_count = 0.0, 0.0
        for b, a in zip(before["nodes"], after["nodes"]):
            s, c = histogram_delta(b, a, "serve_batch_size")
            batch_sum, batch_count = batch_sum + s, batch_count + c
        lay = {}
        lay.update(layers.planner_layers(sfs, inputs.hot_set(seed, spec.hot),
                                         stream_for(spec, seed, sfs), tracer))
        lay.update(layers.protocol_layers(ledger.frames, tracer))
        lay["serve.tenancy.wfq_op_us"] = layers.wfq_op_us(
            stream_for(spec, seed, sfs), spec.inflight, tracer)
        lay["planner.cache_hit_ratio"] = counters["cache_hit_ratio"]
        lay["planner.warm_rate"] = counters["warm_rate"]
        lay["serve.service.server_mean_ms"] = server_ms
        busy_ms = (
            lay["serve.protocol.decode_us"] + lay["serve.protocol.parse_us"]
            + lay["serve.protocol.encode_us"]
        ) / 1e3 + lay.pop("planner.replay_mean_ms")
        lay["serve.service.wait_ms"] = quantile(untraced, 0.5) / 1e6 - busy_ms
        lay["serve.service.batch_size_mean"] = batch_sum / batch_count if batch_count else 0.0
        lay["serve.service.shed"] = counters["shed"]
        if spec.routed:
            router_ms = _mean_ms([before["front"]], [after["front"]], "cluster_request_seconds")
            lay["cluster.router.server_mean_ms"] = router_ms
            lay["cluster.router.hop_ms"] = router_ms - server_ms
            lay["cluster.router.fallbacks"] = counters["fallbacks"]
            lay["cluster.ring_lookup_us"] = layers.ring_lookup_us(after["members"], fp, tracer)
        lay["obs.bench_tracing_overhead_pct"] = _overhead_pct(ledger.lat[False], ledger.lat[True])
        lay["latency_p99_ms"] = out.e2e["latency_p99_ms"]
        lay["host.ref_ms"] = speed.ref_ms()
        out.layers = lay
    return out


def run(name: str, root: Path, seed: int, seconds: float, trace: bool, tracer: Tracer) -> Outcome:
    if name == "fig21-cold":
        return fig21_cold(root, seed, seconds, trace, tracer)
    return served(name, root, seed, seconds, trace, tracer)


def table(title: str, header: list, rows: list) -> str:
    cells = [list(map(str, header))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = [title]
    for k, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)

