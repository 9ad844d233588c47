"""The benchmark's open-loop HTTP client for ``POST /v1/serve``.

One process, one thread, one ``selectors`` loop over a few keep-alive
connections. Requests go out in the order and at the offsets of a
seeded ``build_schedule`` plan, pipelined; each user's requests always
use the same connection, so per-user order is preserved. A request's
latency runs from the moment it was *due*, not from when it was sent,
so a stall in the server (or in this client) shows up in every request
that waited behind it. How late the client itself sent each request is
kept as well, to judge whether the generator kept up.
"""

from __future__ import annotations

import gc
import json
import selectors
import socket
import statistics
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: How long to wait for outstanding answers after the last request is due.
DRAIN_TIMEOUT_S = 30.0


@dataclass
class PhaseResult:
    """Raw per-request outcomes of one schedule."""

    rate: float
    due: List[float]
    sent: List[float]
    done: List[float]
    status: List[int]
    ad_ids: List[Tuple[str, ...]]
    user_ids: List[str]
    #: Set by the rate search: whether the step met every limit, and why
    #: not.
    passed: bool = False
    verdict: str = ""
    errors: List[str] = field(default_factory=list)

    def latencies_ms(self) -> List[float]:
        """From due time; a request that got no 200 counts as infinite."""
        return [(d - u) * 1000.0 if s == 200 else float("inf")
                for u, d, s in zip(self.due, self.done, self.status)]

    def lateness_ms(self) -> List[float]:
        return [(s - u) * 1000.0 for u, s in zip(self.due, self.sent)]

    def failures(self) -> int:
        return sum(1 for s in self.status if s != 200)


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Exact sample quantile (nearest rank) of raw values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-int(q * 10000) * len(ordered) // 10000))
    return ordered[min(rank, len(ordered)) - 1]


#: Samples per window of :func:`windowed_p99`: 12 beyond each p99.
P99_WINDOW = 1200


def windowed_p99(latencies: Sequence[float]) -> float:
    """Median over consecutive :data:`P99_WINDOW`-sample windows of each
    window's exact p99 (one window when there are fewer samples), so one
    short stall moves one window, not the result."""
    windows = max(1, len(latencies) // P99_WINDOW)
    size = len(latencies) // windows
    return statistics.median(
        nearest_rank(latencies[k * size:(k + 1) * size], 0.99)
        for k in range(windows))


def _frame(host: str, user_id: str, slots: int) -> bytes:
    body = json.dumps({"user_id": user_id, "slots": slots}).encode("utf-8")
    return (f"POST /v1/serve HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1") + body


class OpenLoopClient:
    """Keep-alive connections to one gateway, reused across phases."""

    def __init__(self, host: str, port: int, connections: int):
        self.host = host
        self._socks: List[socket.socket] = []
        for _ in range(connections):
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            self._socks.append(sock)

    def close(self) -> None:
        for sock in self._socks:
            sock.close()
        self._socks = []

    def run(self, plan, rate: float) -> PhaseResult:
        """Offer ``plan`` (``build_schedule`` output) and collect answers."""
        n = len(plan)
        conns = len(self._socks)
        frames = [_frame(self.host, req.user_id, req.slots)
                  for _, req in plan]
        lanes = [zlib.crc32(req.user_id.encode("utf-8")) % conns
                 for _, req in plan]
        result = PhaseResult(
            rate=rate, due=[0.0] * n, sent=[0.0] * n, done=[0.0] * n,
            status=[0] * n, ad_ids=[()] * n,
            user_ids=[req.user_id for _, req in plan])
        inflight = [deque() for _ in range(conns)]
        outbuf = [bytearray() for _ in range(conns)]
        inbuf = [bytearray() for _ in range(conns)]
        writing = [False] * conns
        selector = selectors.DefaultSelector()
        for index, sock in enumerate(self._socks):
            selector.register(sock, selectors.EVENT_READ, index)
        # No collector pause in the client while requests are due: it
        # would show as server latency. The phase allocates little.
        gc.collect()
        gc.disable()
        zero = time.perf_counter() + 0.005
        due = result.due
        for i, (offset, _req) in enumerate(plan):
            due[i] = zero + offset
        nxt = answered = 0
        drain_until: Optional[float] = None
        try:
            while answered < n:
                now = time.perf_counter()
                touched = set()
                while nxt < n and due[nxt] <= now:
                    lane = lanes[nxt]
                    outbuf[lane] += frames[nxt]
                    result.sent[nxt] = now
                    inflight[lane].append(nxt)
                    touched.add(lane)
                    nxt += 1
                    if nxt == n:
                        drain_until = now + DRAIN_TIMEOUT_S
                for lane in touched:
                    self._flush(lane, outbuf, writing, selector)
                if drain_until is not None:
                    timeout = drain_until - now
                    if timeout <= 0:
                        break
                else:
                    timeout = max(0.0, due[nxt] - time.perf_counter())
                for key, mask in selector.select(timeout):
                    lane = key.data
                    if mask & selectors.EVENT_WRITE:
                        self._flush(lane, outbuf, writing, selector)
                    if mask & selectors.EVENT_READ:
                        answered += self._read(lane, inbuf, inflight,
                                               result)
        finally:
            gc.enable()
            selector.close()
        for lane in range(conns):
            for index in inflight[lane]:
                result.errors.append(f"no answer to request {index}")
        return result

    def _flush(self, lane, outbuf, writing, selector) -> None:
        buf = outbuf[lane]
        sock = self._socks[lane]
        if buf:
            try:
                sent = sock.send(buf)
                del buf[:sent]
            except BlockingIOError:
                pass
        want = bool(buf)
        if want != writing[lane]:
            events = selectors.EVENT_READ | (selectors.EVENT_WRITE
                                             if want else 0)
            selector.modify(sock, events, lane)
            writing[lane] = want

    def _read(self, lane, inbuf, inflight, result: PhaseResult) -> int:
        try:
            data = self._socks[lane].recv(1 << 16)
        except BlockingIOError:
            return 0
        now = time.perf_counter()
        if not data:
            raise ConnectionError("gateway closed a keep-alive connection")
        buf = inbuf[lane]
        buf += data
        count = 0
        while True:
            head_end = buf.find(b"\r\n\r\n")
            if head_end < 0:
                break
            head = bytes(buf[:head_end]).decode("latin-1")
            length = 0
            for line in head.split("\r\n")[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            end = head_end + 4 + length
            if len(buf) < end:
                break
            body = bytes(buf[head_end + 4:end])
            del buf[:end]
            index = inflight[lane].popleft()
            status = int(head.split(" ", 2)[1])
            result.status[index] = status
            result.done[index] = now
            if status == 200:
                payload: Dict[str, object] = json.loads(body)
                result.ad_ids[index] = tuple(payload["ad_ids"])
            count += 1
        return count
