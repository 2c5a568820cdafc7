"""Per-layer measurements, taken from outside each layer.

A traced run times calls into each layer's public functions in this
process, on the workload's own inputs: the planner on a replay of the
workload's request stream, the protocol codec on the frames the run
actually sent and received, the fair queue on the stream's arrival
pattern and the ring on the cluster's real members.  Each call is one
span, so these numbers are span durations.  The layers are imported
here, inside the functions, so an untraced run needs none of them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Ops of the workload's stream that a traced run replays in process.
REPLAY_OPS = 400
#: Fresh sizes per ``plan_many`` sweep in the replay.
SWEEP = 8
#: Sizes timed as cold plans on an empty planner.
COLD_SIZES = 8
#: Passes of the codec over the run's frames.
PROTOCOL_REPEATS = 5
#: Ring lookups timed as one span.
RING_LOOKUPS = 2000


def fig21_name(p: int, n: int) -> str:
    return f"core.fig21_ms.p{p}.n{n:.3g}".replace("+0", "").replace("+", "")


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (0 for no values)."""
    if not len(values):
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, max(0, int(np.ceil(q * len(ordered))) - 1))])


def planner_layers(sfs, hot, stream, tracer) -> dict:
    """Fleet build, hit / cold / warm plan and sweep cost on a replay."""
    from repro import Fleet, Planner

    builds = []
    with tracer.span("bench.replay.planner") as parent:
        for _ in range(3):
            with tracer.span("planner.Fleet", parent):
                t0 = time.perf_counter_ns()
                fleet = Fleet(sfs)
                builds.append(time.perf_counter_ns() - t0)
        ops = [arg for op, arg in stream.take(REPLAY_OPS) if op == "plan"]
        hot_set = set(hot)
        fresh = list(dict.fromkeys(n for n in ops if n not in hot_set))

        cold = []
        for n in list(dict.fromkeys(ops))[:COLD_SIZES]:
            empty = Planner(fleet)
            with tracer.span("planner.plan", parent, n):
                t0 = time.perf_counter_ns()
                empty.plan(n)
                cold.append(time.perf_counter_ns() - t0)

        planner = Planner(fleet)
        planner.plan_many(hot)
        hits, warm, every = [], [], []
        for n in ops:
            before = planner.stats()
            with tracer.span("planner.plan", parent, n):
                t0 = time.perf_counter_ns()
                planner.plan(n)
                took = time.perf_counter_ns() - t0
            every.append(took)
            after = planner.stats()
            if after.cache.hits > before.cache.hits:
                hits.append(took)
            elif after.warm_plans > before.warm_plans:
                warm.append(took)

        sweeper = Planner(fleet)
        sweeper.plan_many(hot)
        per_plan = []
        for i in range(0, len(fresh), SWEEP):
            batch = fresh[i:i + SWEEP]
            with tracer.span("planner.plan_many", parent, len(batch)):
                t0 = time.perf_counter_ns()
                sweeper.plan_many(batch)
                per_plan.append((time.perf_counter_ns() - t0) / len(batch))
    return {
        "planner.fleet_build_ms": quantile(builds, 0.5) / 1e6,
        "planner.hit_us": quantile(hits, 0.5) / 1e3,
        "planner.cold_ms": quantile(cold, 0.5) / 1e6,
        "planner.warm_ms": quantile(warm, 0.5) / 1e6,
        "planner.plan_many_ms_per_plan": quantile(per_plan, 0.5) / 1e6,
        "planner.replay_mean_ms": statistics.fmean(every) / 1e6 if every else 0.0,
    }


def protocol_layers(frames, tracer) -> dict:
    """The server's codec on the run's real frames.

    ``decode`` is :func:`decode_frame` on the received response frames,
    ``parse`` is :func:`parse_request` on the sent request frames and
    ``encode`` is :func:`encode_frame` on the decoded responses.
    """
    from repro.serve.protocol import decode_frame, encode_frame, parse_request

    if not frames:
        return {}
    times = {"decode": [], "parse": [], "encode": []}
    with tracer.span("bench.replay.protocol") as parent:
        for _ in range(PROTOCOL_REPEATS):
            for req_line, resp_line in frames:
                with tracer.span("serve.protocol.decode_frame", parent):
                    t0 = time.perf_counter_ns()
                    resp = decode_frame(resp_line)
                    times["decode"].append(time.perf_counter_ns() - t0)
                raw = decode_frame(req_line)
                with tracer.span("serve.protocol.parse_request", parent):
                    t0 = time.perf_counter_ns()
                    parse_request(raw)
                    times["parse"].append(time.perf_counter_ns() - t0)
                with tracer.span("serve.protocol.encode_frame", parent):
                    t0 = time.perf_counter_ns()
                    encode_frame(resp)
                    times["encode"].append(time.perf_counter_ns() - t0)
    return {f"serve.protocol.{k}_us": quantile(v, 0.5) / 1e3 for k, v in times.items()}


def wfq_op_us(stream, inflight: int, tracer) -> float:
    """One push plus one pop of a :class:`WFQueue`, in bursts of ``inflight``."""
    from repro.serve.tenancy import WFQueue

    queue = WFQueue(128)
    ops = stream.take(REPLAY_OPS)
    per_op = []
    with tracer.span("bench.replay.wfq") as parent:
        for i in range(0, len(ops), inflight):
            burst = ops[i:i + inflight]
            with tracer.span("serve.tenancy.wfq_burst", parent, len(burst)):
                t0 = time.perf_counter_ns()
                for item in burst:
                    queue.put_nowait(item)
                for _ in burst:
                    queue.get_nowait()
                per_op.append((time.perf_counter_ns() - t0) / len(burst))
    return quantile(per_op, 0.5) / 1e3


def ring_lookup_us(members, fingerprint: str, tracer) -> float:
    """:meth:`ClusterMembership.replicas_for` over the cluster's real members."""
    from repro.cluster.membership import ClusterMembership, NodeInfo

    membership = ClusterMembership(replication=2)
    for node in members:
        membership.add(NodeInfo(host=node["host"], port=node["port"]))
    with tracer.span("cluster.replicas_for", 0, RING_LOOKUPS):
        t0 = time.perf_counter_ns()
        for _ in range(RING_LOOKUPS):
            membership.replicas_for(fingerprint)
        took = time.perf_counter_ns() - t0
    return took / RING_LOOKUPS / 1e3
