"""Host the system under test through its CLIs, and talk to it.

The benchmark never imports the serving stack to run it: it starts
``python -m repro serve`` or ``python -m repro cluster up`` as a child
process, reads the addresses the command prints, speaks the NDJSON wire
protocol over plain asyncio sockets, scrapes ``/metrics`` over HTTP, and
stops the command with SIGINT, which makes it drain before it exits.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

_ADDR = re.compile(r"on (\S+):(\d+) \(http (\d+|disabled)\)")
_READY = "press Ctrl-C"
_PROM = re.compile(r'^([A-Za-z_:][\w:]*)(\{[^}]*\})? (\S+)$')
_MAX_LINE = 64 * 1024 * 1024
# The scrape goes straight to the child's loopback listener, never
# through a proxy named in the environment.
_HTTP = urllib.request.build_opener(urllib.request.ProxyHandler({}))
#: Seconds the command has to print its listener address.
BOOT_TIMEOUT_S = 60.0
#: Seconds the command has to drain before it is killed.
STOP_TIMEOUT_S = 30.0
#: Seconds a set-up call (register, pre-warm, stats) may take.
CALL_TIMEOUT_S = 120.0


def child_env(root: Path) -> dict:
    """The environment for a child: this checkout's sources, scratch inside it."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    tmp = root / ".bench_tmp"
    # multiprocessing puts AF_UNIX sockets under TMPDIR, and a socket path
    # must fit in 107 bytes; keep the default when the checkout is deep.
    if len(str(tmp)) <= 60:
        tmp.mkdir(exist_ok=True)
        env["TMPDIR"] = str(tmp)
    return env


def _descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (read from /proc)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] != "Z":
            children.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        for kid in children.get(todo.pop(), []):
            out.append(kid)
            todo.append(kid)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _kill(kill, target: int) -> None:
    try:
        kill(target, signal.SIGKILL)
    except ProcessLookupError:
        pass  # it ended on its own meanwhile


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one process in MiB, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class CommandHost:
    """One ``python -m repro ...`` child that serves until drained."""

    def __init__(self, root: Path, argv: list[str]):
        self.argv = argv
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            cwd=root, env=child_env(root), stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL, text=True, start_new_session=True,
        )
        self.lines: list[str] = []
        self._q: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self.host = ""
        self.port = self.http_port = 0
        try:
            self._await_ready()
        except BaseException:
            self.stop()
            raise

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._q.put(line.rstrip("\n"))
        self._q.put(None)

    def _await_ready(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            try:
                line = self._q.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError(f"`repro {' '.join(self.argv)}` did not boot in {BOOT_TIMEOUT_S}s")
            if line is None:
                raise RuntimeError(
                    f"`repro {' '.join(self.argv)}` exited with {self.proc.wait()} "
                    f"before serving: {self.lines}"
                )
            self.lines.append(line)
            m = _ADDR.search(line)
            if m and not self.host:
                self.host, self.port = m.group(1), int(m.group(2))
                if m.group(3) == "disabled":
                    raise RuntimeError("the benchmark needs the HTTP listener")
                self.http_port = int(m.group(3))
            if _READY in line:
                if not self.host:
                    raise RuntimeError(f"no listener address in {self.lines}")
                return

    def pids(self) -> list[int]:
        return [self.proc.pid, *_descendants(self.proc.pid)]

    def peak_rss_mb(self) -> float:
        """VmHWM summed over the command and every process it started."""
        return sum(vm_hwm_mb(pid) for pid in self.pids())

    def stop(self) -> None:
        """Drain with SIGINT; kill whatever has not ended by ``STOP_TIMEOUT_S``."""
        family = self.pids() if self.proc.poll() is None else []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                _kill(os.killpg, self.proc.pid)
                self.proc.wait(10)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in family[1:]:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                _kill(os.kill, pid)
        self._reader.join(10)
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# The wire client
# ---------------------------------------------------------------------------


class ServeError(Exception):
    """An ``ok: false`` answer, carrying its wire error code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code


class Connection:
    """One pipelined NDJSON connection: requests matched to answers by id."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader, self._writer = reader, writer
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port, limit=_MAX_LINE)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                obj = json.loads(line)
                fut = self._pending.pop(obj.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result((obj, line))
        finally:
            for fut in self._pending.values():
                if not fut.done():
                    fut.set_exception(ConnectionError("connection closed"))
            self._pending.clear()

    async def send(self, frame: dict, timeout: float) -> tuple[dict, bytes, bytes]:
        """Send one request; return ``(response, request line, response line)``."""
        req_id = next(self._ids)
        line = json.dumps({"v": 1, "id": req_id, **frame}, separators=(",", ":")).encode() + b"\n"
        fut = asyncio.get_running_loop().create_future()
        self._pending[req_id] = fut
        self._writer.write(line)
        try:
            obj, raw = await asyncio.wait_for(fut, timeout)
        finally:
            self._pending.pop(req_id, None)
        return obj, line, raw

    async def call(self, op: str, **fields) -> dict:
        """One request whose answer must be ``ok``; returns its result."""
        obj, _, _ = await self.send({"op": op, **fields}, CALL_TIMEOUT_S)
        if not obj.get("ok"):
            err = obj.get("error") or {}
            raise ServeError(err.get("code", "internal"), err.get("message", ""))
        return obj["result"]

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass


def scrape(host: str, http_port: int) -> dict[tuple[str, str], float]:
    """``/metrics`` as ``{(sample name, label text): value}``."""
    with _HTTP.open(f"http://{host}:{http_port}/metrics", timeout=30) as resp:
        text = resp.read().decode()
    out = {}
    for line in text.splitlines():
        m = _PROM.match(line)
        if m:
            out[(m.group(1), m.group(2) or "")] = float(m.group(3))
    return out


def histogram_delta(before: dict, after: dict, name: str) -> tuple[float, float]:
    """``(sum, count)`` of histogram ``name`` over every label set, after - before."""
    total = [0.0, 0.0]
    for i, suffix in enumerate(("_sum", "_count")):
        for (key, labels), value in after.items():
            if key == name + suffix:
                total[i] += value - before.get((key, labels), 0.0)
    return total[0], total[1]
