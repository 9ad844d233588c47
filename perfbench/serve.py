"""The ``serve`` workload: ``repro gateway`` under an open-loop client.

The system under test is ``repro gateway --backend process --shards
<nproc>`` as a subprocess, over the persona world its
:class:`~repro.gateway.world.WorldManifest` describes. Set-up is timed
from process start until ``/healthz`` answers (shard workers are forked
before the listener opens), several times per run. Then the
benchmark's client (:mod:`httpclient`) offers ``POST /v1/serve`` on the
seeded ``build_schedule`` arrivals: first at a fixed nominal rate below
the knee, where latency, CPU (and so requests per CPU-second) and
failures are measured; then one short
step per rate of a fixed grid, ascending, for the highest rate whose
p99 stays within the latency limit with no failed request and no
growing backlog. Between that step and the next (failing) one, the rate where
p99 reaches the limit is interpolated on log(p99).

Checks, every run: each returned ad satisfies its user's targeting
(``Expr.matches`` on a world rebuilt from the same manifest); no
``(user, ad)`` pair is returned twice; and the impression total in the
gateway's SIGTERM ``final_report.json`` equals the number of ad ids the
client received.
"""

from __future__ import annotations

import json
import math
import os
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import hostinfo
import httpclient
from httpclient import P99_WINDOW, OpenLoopClient, PhaseResult, nearest_rank

#: Persona-world population (the WorldManifest default).
USERS = 150
#: Nominal offered load, requests/s: a tenth of the knee. Over ten runs
#: each on the development host, p50 spread 0.08 between quartiles at
#: 250 requests/s and 0.15 at 450: the busier the host, the more a slow
#: spell of it queues up.
NOMINAL_RPS = 250.0
#: Rates searched for the highest sustainable one, requests/s.
RATE_GRID = (1800.0, 2100.0, 2400.0, 2700.0, 3000.0, 3300.0, 3600.0)
#: p99 limit a grid step must meet, from due time.
LATENCY_LIMIT_MS = 50.0
#: Unmeasured first phase at the nominal rate: the gateway's first
#: requests fill its caches and journals.
WARMUP_S = 1.0
#: Gateway start-ups per run; set-up time is their median.
SETUP_STARTS = 3
#: The grid search stops after this many failing steps in a row.
MAX_FAILED_STEPS = 2
READY_TIMEOUT_S = 120.0


class Gateway:
    """One ``repro gateway`` subprocess over a fresh journal directory."""

    def __init__(self, src: str, workdir: str, seed: int, shards: int,
                 trace_dir: Optional[str] = None):
        self.journal_dir = os.path.join(
            workdir, f"journal-{time.monotonic_ns()}")
        here = os.path.dirname(os.path.abspath(__file__))
        cli = ["gateway", "--backend", "process", "--shards", str(shards),
               "--journal-dir", self.journal_dir, "--port", "0",
               "--users", str(USERS), "--seed", str(seed)]
        if trace_dir is not None:
            cli += ["--trace-out", os.path.join(trace_dir,
                                                "program-spans.jsonl")]
            self.argv = [sys.executable,
                         os.path.join(here, "gateway_proc.py"),
                         "--trace-dir", trace_dir, "--"] + cli
        else:
            self.argv = [sys.executable, "-m", "repro"] + cli
        # A fixed hash seed gives every gateway the same dict and set
        # layout, one less thing that differs between two runs.
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        PYTHONPATH=os.pathsep.join([src, here]))
        self.stderr_path = self.journal_dir + ".stderr"
        self.process: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> float:
        """Start the gateway; returns seconds until ``/healthz`` is 200."""
        started = time.perf_counter()
        with open(self.stderr_path, "wb") as stderr:
            self.process = subprocess.Popen(
                self.argv, stdout=subprocess.PIPE, stderr=stderr,
                env=self.env)
        line = self._ready_line(started + READY_TIMEOUT_S)
        url = line.split("listening on ", 1)[1].split()[0]
        self.host, port = url.split("//", 1)[1].rsplit(":", 1)
        self.port = int(port)
        while time.perf_counter() < started + READY_TIMEOUT_S:
            try:
                status, _body = self.get("/healthz")
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - started
            time.sleep(0.002)
        raise RuntimeError("gateway never became healthy")

    def _ready_line(self, deadline: float) -> str:
        assert self.process is not None and self.process.stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while time.perf_counter() < deadline:
                if selector.select(deadline - time.perf_counter()):
                    line = self.process.stdout.readline().decode()
                    if "listening on" in line:
                        return line
                    if not line:
                        break
        raise RuntimeError(f"gateway did not start; see {self._stderr()}")

    def _stderr(self) -> str:
        with open(self.stderr_path, encoding="utf-8",
                  errors="replace") as stream:
            return stream.read()[-2000:]

    def get(self, path: str):
        with socket.create_connection((self.host, self.port),
                                      timeout=10.0) as sock:
            sock.sendall(f"GET {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                         "Connection: close\r\n\r\n".encode("latin-1"))
            data = b""
            while True:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        return int(head.split(b" ", 2)[1]), body

    def stop(self) -> dict:
        """SIGTERM, wait for exit, return ``final_report.json``."""
        assert self.process is not None
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise RuntimeError("gateway ignored SIGTERM")
        finally:
            self.process.stdout.close()
        path = os.path.join(self.journal_dir, "final_report.json")
        if self.process.returncode != 0 or not os.path.exists(path):
            raise RuntimeError(
                f"gateway exited {self.process.returncode}: "
                f"{self._stderr()}")
        with open(path, encoding="utf-8") as stream:
            return json.load(stream)

    def kill(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait()


def _schedule(user_ids: List[str], rate: float, seconds: float, seed: int):
    from repro.serve.loadgen import LoadConfig, build_schedule

    return build_schedule(user_ids, LoadConfig(rps=rate, duration_s=seconds,
                                               seed=seed))


def _step_verdict(phase: PhaseResult) -> str:
    """``"ok"`` when nothing failed, p99 is within the limit, and the
    backlog did not grow; otherwise why not. A growing backlog delays
    every later request, so it shows as a last-window median above the
    limit, which a short stall does not move."""
    if phase.failures() or phase.errors:
        return f"{phase.failures()} failed"
    if windowed_p99(phase) > LATENCY_LIMIT_MS:
        return "p99"
    last = phase.latencies_ms()[-P99_WINDOW:]
    if nearest_rank(last, 0.50) > LATENCY_LIMIT_MS:
        return "backlog"
    return "ok"


def windowed_p99(phase: PhaseResult) -> float:
    return httpclient.windowed_p99(phase.latencies_ms())


def capacity(steps: List[PhaseResult]) -> Tuple[float, float]:
    """``(max_rps, estimate)``: the highest passing grid rate, and the
    rate where p99 crosses the limit, interpolated on log(p99) between
    that step and the next one tested."""
    passing = [k for k, step in enumerate(steps) if step.passed]
    if not passing:
        return 0.0, 0.0
    best = steps[passing[-1]]
    if passing[-1] + 1 == len(steps):
        return best.rate, best.rate
    over = steps[passing[-1] + 1]
    low = windowed_p99(best)
    high = windowed_p99(over)
    if high <= LATENCY_LIMIT_MS or low <= 0:
        # Failed on failures or backlog, not on p99: no crossing.
        return best.rate, best.rate
    share = math.log(LATENCY_LIMIT_MS / low) / math.log(high / low)
    return best.rate, best.rate + (over.rate - best.rate) * share


def _measure(gateway: Gateway, seed: int, nominal_s: float,
             step_s: Optional[float]) -> dict:
    """Nominal phase (and the rate grid when ``step_s`` is given)."""
    connections = hostinfo.visible_cores()
    status, body = gateway.get("/v1/users")
    if status != 200:
        raise RuntimeError(f"GET /v1/users answered {status}")
    user_ids = json.loads(body)["user_ids"]
    plan = _schedule(user_ids, NOMINAL_RPS, nominal_s, seed)
    client = OpenLoopClient(gateway.host, gateway.port, connections)
    probe = hostinfo.SpeedProbe()
    try:
        warmup = client.run(
            _schedule(user_ids, NOMINAL_RPS, WARMUP_S, seed + 7919),
            NOMINAL_RPS)
        cpu_before = hostinfo.proc_tree_cpu_seconds(gateway.process.pid)
        started = time.perf_counter()
        nominal = client.run(plan, NOMINAL_RPS)
        ended = time.perf_counter()
        cpu = hostinfo.proc_tree_cpu_seconds(gateway.process.pid) \
            - cpu_before
        rss = hostinfo.proc_tree_hwm_mb(gateway.process.pid)
        speed = hostinfo.phase_speed(probe.stop(), started, ended)
        steps: List[PhaseResult] = []
        if step_s is not None:
            failed_in_row = 0
            for k, rate in enumerate(RATE_GRID):
                time.sleep(0.1)
                step = client.run(
                    _schedule(user_ids, rate, step_s, seed * 100 + k + 1),
                    rate)
                step.verdict = _step_verdict(step)
                step.passed = step.verdict == "ok"
                steps.append(step)
                failed_in_row = 0 if step.passed else failed_in_row + 1
                if failed_in_row >= MAX_FAILED_STEPS:
                    break
    finally:
        probe.kill()
        client.close()
    return {"warmup": warmup, "nominal": nominal, "steps": steps,
            "cpu_s": cpu, "rss_mb": rss,
            "scale": hostinfo.MEMORY_PASS_REF_S / speed}


def _check(seed: int, phases: List[PhaseResult], report: dict) -> List[str]:
    """Deliver-iff-match, frequency cap, and the gateway's own tally."""
    from repro.gateway.world import WorldManifest, build_world

    platform = build_world(WorldManifest(seed=seed, users=USERS))
    resolver = platform.audiences.is_member
    problems = []
    seen = set()
    answered = 0
    for phase in phases:
        for user_id, ad_ids, status in zip(phase.user_ids, phase.ad_ids,
                                           phase.status):
            if status != 200:
                continue
            user = platform.users.get(user_id)
            for ad_id in ad_ids:
                answered += 1
                if (user_id, ad_id) in seen:
                    problems.append(f"{ad_id} served twice to {user_id}")
                seen.add((user_id, ad_id))
                ad = platform.inventory.ad(ad_id)
                if not ad.targeting.expr.matches(user, resolver):
                    problems.append(f"{ad_id} served to {user_id}, who "
                                    "does not match its targeting")
        problems.extend(phase.errors)
    final = report["totals"]["impressions"]
    if final != answered:
        problems.append(f"final_report.json counts {final} impressions, "
                        f"the client received {answered} ad ids")
    return problems[:20]


def run(seed: int, seconds: float, traced: bool, workdir: str,
        src: str) -> dict:
    shards = hostinfo.visible_cores()
    nominal_s = max(1.0, 0.85 * seconds)
    step_s = max(0.5, 0.03 * seconds)
    gateways: List[Gateway] = []
    try:
        if traced:
            return _run_traced(seed, nominal_s, workdir, src, shards,
                               gateways)
        setups = []
        for _ in range(SETUP_STARTS):
            gateway = Gateway(src, workdir, seed, shards)
            gateways.append(gateway)
            setups.append(gateway.start())
            if len(setups) < SETUP_STARTS:
                gateway.stop()
        measured = _measure(gateway, seed, nominal_s, step_s)
        report = gateway.stop()
    finally:
        for gateway in gateways:
            gateway.kill()
    nominal: PhaseResult = measured["nominal"]
    phases = [measured["warmup"], nominal] + measured["steps"]
    problems = _check(seed, phases, report)
    for step in measured["steps"]:
        # Shed and timed-out answers are how overload shows on the grid;
        # any other non-200 answer is an error.
        odd = [s for s in step.status if s not in (200, 429, 504)]
        if odd:
            problems.append(f"{len(odd)} answers with status "
                            f"{sorted(set(odd))} at {step.rate:.0f} rps")
    max_rps, estimate = capacity(measured["steps"])
    lateness = nominal.lateness_ms()
    notes = [
        f"serve: gateway --backend process --shards {shards}, {USERS} "
        f"users, {hostinfo.visible_cores()} client connections",
        f"serve: nominal {NOMINAL_RPS:.0f} rps for {nominal_s:.1f} s: "
        f"{len(nominal.due)} requests after a {WARMUP_S:.0f} s warm-up, "
        f"p50 of all raw samples, p99 the median of {P99_WINDOW}-request "
        f"windows' exact p99, generator lateness max "
        f"{max(lateness, default=0):.2f} ms",
        "serve: rate grid " + ", ".join(
            f"{s.rate:.0f}:{s.verdict}(p99 {windowed_p99(s):.1f} ms)"
            for s in measured["steps"]),
        f"serve: set-up starts (s): " + ", ".join(
            f"{seconds:.3f}" for seconds in setups),
    ]
    return {
        "attempted": len(nominal.due),
        "failed": nominal.failures(),
        "problems": problems,
        "notes": notes,
        "e2e": _end_to_end(measured, setups, measured["scale"]),
        "unscaled": _end_to_end(measured, setups, 1.0),
        "extra": {"max_rps": (max_rps, "1/s"),
                  "max_rps_interpolated": (estimate, "1/s")},
    }


def _end_to_end(measured: dict, setups: List[float],
                scale: float) -> Dict[str, float]:
    """The run's end-to-end metrics, with the nominal phase's times
    multiplied by ``scale`` (see the README); set-up and memory are
    never scaled."""
    nominal: PhaseResult = measured["nominal"]
    latencies = nominal.latencies_ms()
    cpu = measured["cpu_s"] * scale
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": len(latencies) / cpu,
        "cpu_s": cpu,
        "peak_rss_mb": measured["rss_mb"],
        "p50_ms": nearest_rank(latencies, 0.50) * scale,
        "p99_ms": windowed_p99(nominal) * scale,
    }


def _run_traced(seed: int, nominal_s: float, workdir: str, src: str,
                shards: int, gateways: List[Gateway]) -> dict:
    """An untraced and a traced gateway through the same nominal phase;
    per-layer numbers come from the traced one."""
    plain = Gateway(src, workdir, seed, shards)
    gateways.append(plain)
    plain.start()
    untraced = _measure(plain, seed, nominal_s, None)
    plain.stop()
    trace_dir = os.path.join(workdir, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    gateway = Gateway(src, workdir, seed, shards, trace_dir=trace_dir)
    gateways.append(gateway)
    gateway.start()
    traced = _measure(gateway, seed, nominal_s, None)
    report = gateway.stop()
    nominal: PhaseResult = traced["nominal"]
    problems = _check(seed, [traced["warmup"], nominal], report)
    layers = serve_layers(trace_dir, nominal)
    layers["trace.overhead"] = traced["cpu_s"] / untraced["cpu_s"]
    return {
        "attempted": len(nominal.due),
        "failed": nominal.failures(),
        "problems": problems,
        "notes": [f"serve (traced): nominal {NOMINAL_RPS:.0f} rps for "
                  f"{nominal_s:.1f} s; trace.overhead is gateway CPU "
                  "traced / untraced"],
        "layers": layers,
    }


def serve_layers(trace_dir: str, nominal: PhaseResult) -> Dict[str, float]:
    """Per-layer numbers from the traced gateway's records."""
    import spans as spanlib
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import load_jsonl_spans

    with open(os.path.join(trace_dir, "gateway.json"),
              encoding="utf-8") as stream:
        record = json.load(stream)
    recorder = spanlib.Recorder()
    recorder.spans = record["spans"]
    for key, value in record["totals"].items():
        recorder.totals[key] = value
    recorder.out_dir = trace_dir
    recorder.merge_children()
    registry = MetricsRegistry()
    registry.merge_state(record["registry"])
    with open(os.path.join(trace_dir, "program-spans.jsonl"),
              encoding="utf-8") as stream:
        program = load_jsonl_spans(stream.read())

    def durations(name: str) -> List[float]:
        return [s.duration_s for s in program if s.name == name]

    def total(name: str) -> List[float]:
        return recorder.totals.get(name, [0, 0.0, 0])

    own = recorder.spans
    self_time = spanlib.self_times(own)
    handles = [s for s in own if s["name"] == "gateway.handle"]
    submits = [s for s in own if s["name"] == "serve.submit"]
    batch = registry.get("serve.batch_size")
    slots = registry.value("delivery.slots_served")
    delivered = registry.value("delivery.impressions_delivered")
    queue_wait = durations("serve.queue_wait")
    roundtrip = durations("serve.ipc_roundtrip")
    requests = durations("serve.request")
    client_s = sum((d - s) for s, d, st in zip(nominal.sent, nominal.done,
                                               nominal.status) if st == 200)
    traced_s = (total("gateway.parse")[1]
                + sum(self_time[s["id"]] for s in handles)
                + sum(requests))
    lateness = nominal.lateness_ms()
    return {
        "population.load_s": sum(s["end"] - s["start"] for s in own
                                 if s["name"] == "population.load"),
        "population.users": total("population.register")[0],
        "provider.launch_s": sum(s["end"] - s["start"] for s in own
                                 if s["name"] == "provider.launch"),
        "provider.ads_submitted": sum(1 for s in own
                                      if s["name"] == "provider.submit_ad"),
        "targeting.lower_s": (total("targeting.lower")[1]
                              + total("targeting.evaluate")[1]),
        "gateway.requests": len(handles),
        "gateway.parse_s": total("gateway.parse")[1],
        "gateway.handle_s": sum(self_time[s["id"]] for s in handles),
        "serve.submit_s": sum(s["end"] - s["start"] for s in submits),
        "serve.queue_wait_s.p50": nearest_rank(queue_wait, 0.50),
        "serve.queue_wait_s.p99": nearest_rank(queue_wait, 0.99),
        "serve.batch_size.mean": batch.mean if batch and batch.count else 0,
        "serve.shed": registry.value("serve.requests_shed"),
        "serve.timeouts": registry.value("serve.requests_timeout"),
        "serve.ipc.batches": registry.value("serve.ipc_batches"),
        "serve.ipc.bytes": registry.value("serve.ipc_bytes"),
        "serve.ipc.roundtrip_s.p50": nearest_rank(roundtrip, 0.50),
        "serve.ipc.roundtrip_s.p99": nearest_rank(roundtrip, 0.99),
        "delivery.serve_s": sum(durations("serve.engine")),
        "delivery.slots_served": slots,
        "delivery.fill_ratio": delivered / slots if slots else 0.0,
        "billing.charges": total("billing.charge")[2],
        "billing.charge_s": total("billing.charge")[1],
        "store.records_appended": registry.value("store.records_appended"),
        "store.journal_bytes": registry.value("store.journal_bytes"),
        "store.flushes": total("store.flush")[0],
        "store.flush_s": total("store.flush")[1],
        "loadgen.lateness_ms.max": max(lateness, default=0.0),
        "loadgen.lateness_ms.p99": nearest_rank(lateness, 0.99),
        "trace.coverage": traced_s / client_s if client_s else 0.0,
    }
