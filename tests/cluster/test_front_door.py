"""The request envelope both front doors answer through.

One contract, parametrized over a ``start_in_thread`` planning server and
a ``start_router_in_thread`` router over one thread node:

* a non-object frame, a wrong ``v``, an unknown op, a malformed
  ``trace`` and an unknown fleet each get a typed error envelope that
  carries the request id;
* with tracing on, an error response still carries a ``trace_id`` and
  the flight recorder files the failed request under it;
* with tracing off, no trace is recorded and the request is counted as
  *sampled*;
* every request adds exactly one observation to the front door's
  ``*.request.seconds`` histogram, under its ``op`` label.

Frames go straight into ``service.handle`` on the server's own loop, so
the envelope is tested without the listener's framing in front of it.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.io import speed_function_to_dict
from repro.serve.protocol import PROTOCOL_VERSION

#: Every op label both front doors keep a request-seconds histogram for.
OPS = ("plan", "plan_many", "register_fleet", "observe", "health", "stats", "invalid")

UNKNOWN_FLEET = "f" * 32


@pytest.fixture(params=["serve", "cluster"])
def front_door(request, trio_sfs):
    """``(metric prefix, server handle, registered fleet info)``."""
    from repro.cluster import RouterConfig, start_router_in_thread, start_thread_node
    from repro.serve import ServeClient, ServeConfig, start_in_thread

    nodes = []
    if request.param == "serve":
        handle = start_in_thread(ServeConfig(shards=1, batch_window=0.0))
    else:
        nodes.append(start_thread_node("n0", shards=1, batch_window=0.0))
        handle = start_router_in_thread(
            RouterConfig(probe_interval=0), [n.info for n in nodes]
        )
    try:
        with ServeClient(handle.host, handle.port) as client:
            info = client.register_fleet(trio_sfs, name="trio")
        yield request.param, handle, info
    finally:
        handle.stop()
        for node in nodes:
            node.stop()


def _frame(op: str, req_id=7, **fields) -> dict:
    return {"v": PROTOCOL_VERSION, "id": req_id, "op": op, **fields}


def _handle(handle, raw) -> dict:
    return handle.call(handle.service.handle(raw))


def _bad_frames(fp: str) -> dict:
    return {
        "non_object": (["not", "an", "object"], None, "invalid_request"),
        "wrong_version": (
            {**_frame("plan", fleet=fp, n=1000), "v": PROTOCOL_VERSION + 1},
            7, "unsupported_version",
        ),
        "unknown_op": (_frame("teleport"), 7, "unknown_op"),
        "malformed_trace": (
            _frame("plan", fleet=fp, n=1000, trace={"trace_id": 42}),
            7, "invalid_request",
        ),
        "unknown_fleet": (
            _frame("plan", fleet=UNKNOWN_FLEET, n=1000), 7, "unknown_fleet"
        ),
    }


@pytest.mark.parametrize(
    "case",
    ["non_object", "wrong_version", "unknown_op", "malformed_trace", "unknown_fleet"],
)
def test_bad_frames_get_typed_errors_with_the_request_id(front_door, case):
    _, handle, info = front_door
    raw, req_id, code = _bad_frames(info["fingerprint"])[case]
    resp = _handle(handle, raw)
    assert resp["v"] == PROTOCOL_VERSION
    assert resp["ok"] is False
    assert resp["id"] == req_id
    assert resp["error"]["code"] == code
    assert resp["error"]["message"]


def test_traced_error_response_carries_its_trace_id(front_door):
    _, handle, info = front_door
    n = int(info["capacity"]) * 10 + 1
    resp = _handle(handle, _frame("plan", fleet=info["fingerprint"], n=n))
    assert resp["ok"] is False
    assert resp["error"]["code"] == "infeasible"
    assert resp["trace_id"]
    trace = handle.service.recorder.get(resp["trace_id"])
    assert trace is not None
    assert trace.op == "plan" and trace.status == "infeasible"


def test_untraced_requests_are_counted_as_sampled(front_door):
    _, handle, info = front_door
    service = handle.service
    service._tracing = False
    before = service.recorder.stats()
    resp = _handle(
        handle, _frame("plan", fleet=info["fingerprint"], n=250_000, allocation=False)
    )
    after = service.recorder.stats()
    assert resp["ok"], resp
    assert "trace_id" not in resp
    # The recorded/sampled counters are process-wide (the cluster case's
    # thread node records its own trace); the ring is this recorder's.
    assert after["ring_size"] == before["ring_size"]
    assert after["sampled"] == before["sampled"] + 1


def test_each_request_observes_its_op_exactly_once(front_door, trio_sfs):
    prefix, handle, info = front_door
    fp = info["fingerprint"]
    registry = obs.get_registry()
    family = f"{prefix}.request.seconds"

    def counts() -> dict:
        return {
            op: registry.histogram(family, labels={"op": op}).count for op in OPS
        }

    frames = {
        "plan": _frame("plan", fleet=fp, n=250_000, allocation=False),
        "plan_many": _frame(
            "plan_many", fleet=fp, ns=[200_000, 300_000], allocation=False
        ),
        "register_fleet": _frame(
            "register_fleet", name="trio", cache_size=64,
            speed_functions=[speed_function_to_dict(sf) for sf in trio_sfs],
        ),
        "observe": _frame(
            "observe", fleet=fp,
            observations=[{"machine": 0, "size": 1e5, "speed": 100.0}],
        ),
        "health": _frame("health"),
        "stats": _frame("stats"),
        "invalid": _frame("teleport"),
    }
    obs.enable()
    try:
        for op, raw in frames.items():
            before = counts()
            resp = _handle(handle, raw)
            if op != "invalid":
                assert resp["ok"], (op, resp)
            after = counts()
            grew = {k: after[k] - before[k] for k in OPS if after[k] != before[k]}
            assert grew == {op: 1}, (op, grew)
    finally:
        obs.disable()

