"""Traced runs: spans and call totals recorded around the program's
public entry points, from the benchmark's own files.

Nothing under ``src/`` changes. :func:`install_sweep` and
:func:`install_gateway` replace module and class attributes with timing
wrappers and :func:`uninstall` puts the originals back, so untraced
iterations of the same run execute the program untouched.

Coarse calls (a sweep, a report, a launch, one HTTP request) become
spans: name, start, end, parent, and one trace id per request or per
sweep. Calls made once per impression or per record (billing charges,
journal flushes, mask evaluation) only add to a per-name total, which
keeps the traced run's own cost bounded.

Forked children (parallel-sweep workers, gateway shard workers) inherit
the wrappers. Their recorder is cleared at fork, and the child writes
its spans and totals to ``<dir>/child-<pid>.json`` before it hands its
result back; the parent merges those files.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Recorder:
    """In-memory spans and call totals of one process."""

    def __init__(self) -> None:
        self.out_dir: Optional[str] = None
        self.owner_pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.spans: List[dict] = []
        #: name -> [calls, seconds, items]
        self.totals: Dict[str, List[float]] = defaultdict(
            lambda: [0, 0.0, 0])
        self.values: Dict[str, float] = defaultdict(float)

    # -- recording --------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_id(self) -> int:
        # Span ids stay unique across processes: the pid is the high part.
        return (os.getpid() << 32) | next(self._ids)

    def begin(self, name: str, trace: Optional[str] = None) -> dict:
        stack = self._stack()
        span = {"name": name, "id": self.new_id(),
                "parent": stack[-1] if stack else None,
                "trace": trace, "pid": os.getpid(),
                "start": time.perf_counter(), "end": None}
        stack.append(span["id"])
        return span

    def end(self, span: dict, **attrs: object) -> None:
        span["end"] = time.perf_counter()
        if attrs:
            span["attrs"] = attrs
        stack = self._stack()
        if stack and stack[-1] == span["id"]:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def add(self, name: str, seconds: float, items: int = 1) -> None:
        with self._lock:
            total = self.totals[name]
            total[0] += 1
            total[1] += seconds
            total[2] += items

    def note(self, name: str, value: float) -> None:
        with self._lock:
            self.values[name] += value

    # -- cross-process ----------------------------------------------------

    def after_fork_in_child(self) -> None:
        # The forking thread's span stack survives, so the child's spans
        # parent under the span that forked it.
        self._lock = threading.Lock()
        self.reset()

    def dump_child(self) -> None:
        """Write this (child) process's record for the parent to merge."""
        if self.out_dir is None or os.getpid() == self.owner_pid:
            return
        path = os.path.join(self.out_dir, f"child-{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as stream:
            json.dump(self.record(), stream)
        os.replace(path + ".tmp", path)

    def record(self) -> dict:
        return {"pid": os.getpid(), "spans": self.spans,
                "totals": dict(self.totals), "values": dict(self.values)}

    def merge_children(self) -> List[dict]:
        """Read and delete every child record written so far."""
        records = []
        if self.out_dir is None:
            return records
        for name in sorted(os.listdir(self.out_dir)):
            if not (name.startswith("child-") and name.endswith(".json")):
                continue
            path = os.path.join(self.out_dir, name)
            with open(path, encoding="utf-8") as stream:
                records.append(json.load(stream))
            os.unlink(path)
        for record in records:
            self.spans.extend(record["spans"])
            for key, (calls, seconds, items) in record["totals"].items():
                total = self.totals[key]
                total[0] += calls
                total[1] += seconds
                total[2] += items
            for key, value in record["values"].items():
                self.values[key] += value
        return records


RECORDER = Recorder()
_FORK_HOOK_SET = False

#: (owner, attribute, original) of every installed wrapper.
_PATCHES: List[Tuple[object, str, object]] = []


def _patch(owner: object, attr: str, make: Callable[[object], object]
           ) -> None:
    original = getattr(owner, attr)
    _PATCHES.append((owner, attr, original))
    setattr(owner, attr, make(original))


def spanned(name: str, trace_from: Optional[Callable] = None):
    """Wrapper factory: record each call as a span named ``name``."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trace = trace_from(*args, **kwargs) if trace_from else None
            span = RECORDER.begin(name, trace)
            try:
                return fn(*args, **kwargs)
            finally:
                RECORDER.end(span)
        return wrapper
    return make


def totalled(name: str, items_from: Optional[Callable] = None):
    """Wrapper factory: add each call's time to the total ``name``."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                RECORDER.add(name, elapsed,
                             items_from(*args, **kwargs) if items_from
                             else 1)
        return wrapper
    return make


def _busy_coroutine(name: str):
    """Wrapper factory for a coroutine function: total only the time the
    coroutine runs, not the time it is suspended waiting for input."""
    def make(fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            return await _Busy(fn(*args, **kwargs), name)
        return wrapper
    return make


class _Busy:
    """Drive a coroutine step by step, timing each resumption."""

    def __init__(self, coro, name: str) -> None:
        self._coro = coro
        self._name = name

    def __await__(self):
        busy = 0.0
        send, throw = self._coro.send, self._coro.throw
        value, error = None, None
        while True:
            started = time.perf_counter()
            try:
                yielded = throw(error) if error is not None else send(value)
            except StopIteration as stop:
                busy += time.perf_counter() - started
                result = stop.value
                if result is not None:
                    RECORDER.add(self._name, busy)
                return result
            except BaseException:
                busy += time.perf_counter() - started
                raise
            busy += time.perf_counter() - started
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # delivered into the coroutine
                value, error = None, exc


# -- what gets wrapped -------------------------------------------------------


def _install_common() -> None:
    from repro.core.provider import TransparencyProvider
    from repro.platform import delivery, parsweep, targeting
    from repro.platform.billing import BillingLedger
    from repro.platform.platform import AdPlatform

    _patch(AdPlatform, "register_user", totalled("population.register"))
    _patch(AdPlatform, "submit_ad", spanned("provider.submit_ad"))
    _patch(TransparencyProvider, "launch", spanned("provider.launch"))
    lowered = totalled("targeting.lower")

    def lower_wrapper(fn):
        timed = lowered(fn)

        @functools.wraps(fn)
        def wrapper(spec):
            program = timed(spec)
            if program is None:
                RECORDER.note("targeting.fallbacks", 1)
            return program
        return wrapper

    wrapped_lower = lower_wrapper(targeting.lower_spec)
    for module in (targeting, delivery, parsweep):
        _patch(module, "lower_spec", lambda _fn: wrapped_lower)
    _patch(targeting.MaskProgram, "evaluate",
           totalled("targeting.evaluate"))
    _patch(BillingLedger, "charge_impression",
           totalled("billing.charge"))
    _patch(BillingLedger, "charge_impressions_bulk",
           totalled("billing.charge",
                    items_from=lambda *a, **k: a[4] if len(a) > 4
                    else k["count"]))
    _patch(AdPlatform, "report", spanned("reporting.report"))


def install_sweep(out_dir: str) -> None:
    """Wrap the sweep workloads' layers (see the README's layer table)."""
    import pickle

    import worlds
    from repro.obs import metrics
    from repro.platform import parsweep
    from repro.platform.delivery import DeliveryEngine

    _begin(out_dir)
    _install_common()
    _patch(worlds, "load_population", spanned("population.load"))
    _patch(parsweep, "parallel_sweep", spanned("parsweep.parallel_sweep"))
    _patch(parsweep, "certify_budgets", spanned("parsweep.certify"))

    def absorb(fn):
        timed = spanned("parsweep.fold")(fn)

        @functools.wraps(fn)
        def wrapper(self, delta):
            RECORDER.note("parsweep.delta_bytes", len(pickle.dumps(
                delta, protocol=pickle.HIGHEST_PROTOCOL)))
            return timed(self, delta)
        return wrapper

    _patch(DeliveryEngine, "absorb_sweep_delta", absorb)

    def sweep_slots(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            reg = metrics.registry()
            before = (reg.value("delivery.sweep_rounds"),
                      reg.value("delivery.sweep_budget_fallback_rounds"))
            span = RECORDER.begin("delivery.sweep_slots")
            stats = None
            try:
                result = fn(self, *args, **kwargs)
                stats = result[0] if isinstance(result, tuple) else result
            finally:
                RECORDER.end(span, slots=stats.slots if stats else 0,
                              filled=(stats.filled_by_tracked_ads
                                      if stats else 0))
                RECORDER.note("delivery.sweep_rounds",
                              reg.value("delivery.sweep_rounds")
                              - before[0])
                RECORDER.note(
                    "delivery.budget_fallback_rounds",
                    reg.value("delivery.sweep_budget_fallback_rounds")
                    - before[1])
                # A forked worker hands its record over before its delta.
                RECORDER.dump_child()
            return result
        return wrapper

    _patch(DeliveryEngine, "sweep_slots", sweep_slots)


def install_gateway(out_dir: str) -> None:
    """Wrap the serving layers inside a gateway process."""
    from repro.gateway import server
    from repro.gateway.app import GatewayApp
    from repro.serve import ipc
    from repro.serve.runtime import ServingRuntime
    from repro.store.store import JournalStore
    from repro.workloads.population import PopulationBuilder

    _begin(out_dir)
    _install_common()
    _patch(PopulationBuilder, "spawn_mix", spanned("population.load"))
    _patch(server, "read_request", _busy_coroutine("gateway.parse"))
    requests = itertools.count(1)
    _patch(GatewayApp, "handle", spanned(
        "gateway.handle",
        trace_from=lambda _app, _request: f"request-{next(requests)}"))
    _patch(ServingRuntime, "submit", spanned("serve.submit"))
    _patch(JournalStore, "flush", totalled("store.flush"))

    def worker_main(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                RECORDER.dump_child()
        return wrapper

    _patch(ipc, "_worker_main", worker_main)


def _begin(out_dir: str) -> None:
    global _FORK_HOOK_SET
    os.makedirs(out_dir, exist_ok=True)
    RECORDER.out_dir = out_dir
    RECORDER.owner_pid = os.getpid()
    RECORDER.reset()
    if not _FORK_HOOK_SET:
        os.register_at_fork(after_in_child=RECORDER.after_fork_in_child)
        _FORK_HOOK_SET = True


def uninstall() -> None:
    while _PATCHES:
        owner, attr, original = _PATCHES.pop()
        setattr(owner, attr, original)


# -- analysis ----------------------------------------------------------------


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Each span's duration minus the part its same-process children
    cover (children in other processes run concurrently, not nested)."""
    children: Dict[int, List[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out = {}
    for span in spans:
        intervals = sorted(
            (max(c["start"], span["start"]), min(c["end"], span["end"]))
            for c in children.get(span["id"], ())
            if c["pid"] == span["pid"])
        covered, cursor = 0.0, span["start"]
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out
