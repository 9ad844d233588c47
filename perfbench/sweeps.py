"""The ``sweep`` and ``contested`` workloads: one provider's full partner
sweep at population scale, delivered by the parallel batch sweep and
read back through the advertiser reports.

One iteration builds a fresh world (``setup_s``), then times delivery
start to reports returned: ``provider.run_delivery(sweep=True,
sweep_workers=nproc)`` followed by one ``platform.report`` request per
provider ad, each timed on its own. The run repeats iterations until ``--seconds`` have
passed (at least three) and reports medians. After each iteration,
outside the timed phase, the impression count and every account's
reports are checked against the scalar loop's golden fingerprint.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from typing import Dict, List

import hostinfo
import spans
import worlds
from httpclient import P99_WINDOW, nearest_rank, windowed_p99

MIN_ITERATIONS = 3
MAX_ITERATIONS = 60


def _golden(shape: worlds.Shape, variant: int) -> dict:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden.json")
    with open(path, encoding="utf-8") as stream:
        golden = json.load(stream)
    key = f"{shape.name}/{shape.users}/{variant}"
    if key not in golden:
        raise SystemExit(f"no golden fingerprint for {key}; run "
                         "perfbench/make_golden.py")
    return golden[key]


def _iteration(shape: worlds.Shape, variant: int, workers: int,
               golden: dict, traced: bool) -> dict:
    gc.collect()
    before = hostinfo.calibrate()
    root = spans.RECORDER.begin("iteration") if traced else None
    started = time.perf_counter()
    world = worlds.build(shape, variant)
    built = time.perf_counter()
    cpu_before = hostinfo.cpu_seconds()
    world.provider.run_delivery(sweep=True, sweep_workers=workers)
    provider_id = world.provider.account.account_id
    # The provider's view of its campaign: one report request per ad
    # (``AdPlatform.reports`` makes the same calls), each one timed.
    provider_reports, report_latencies = [], []
    for ad in world.platform.inventory.ads_owned_by(provider_id):
        asked = time.perf_counter()
        provider_reports.append(world.platform.report(provider_id,
                                                      ad.ad_id))
        report_latencies.append(time.perf_counter() - asked)
    done = time.perf_counter()
    cpu_after = hostinfo.cpu_seconds()
    if root is not None:
        spans.RECORDER.end(root)
    after = hostinfo.calibrate()
    impressions = world.provider.total_impressions()
    reports = {provider_id: provider_reports}
    for account_id in world.rival_accounts:
        reports[account_id] = world.platform.reports(account_id)
    verdict = worlds.compare(
        worlds.fingerprint(worlds.report_dicts(reports)), golden)
    problems = []
    expected = worlds.expected_treads_impressions(shape)
    if impressions != expected:
        problems.append(f"{impressions} Treads impressions, expected "
                        f"{expected} (users x {worlds.ATTRS_PER_USER + 1})")
    if verdict not in ("exact", "within-rtol"):
        problems.append(verdict)
    return {
        "setup_s": built - started,
        "latency_s": done - built,
        "report_latencies": report_latencies,
        "wall_s": done - started,
        "cpu_s": sum(cpu_after) - sum(cpu_before),
        "self_cpu_s": cpu_after[0] - cpu_before[0],
        "impressions": impressions,
        "verdict": verdict,
        "problems": problems,
        "scale": hostinfo.speed_scale(before, after),
        "accounts": len(world.account_ids()),
    }


def run(name: str, seed: int, seconds: float, traced: bool,
        workdir: str) -> dict:
    shape = worlds.SHAPES[name]
    variant = worlds.variant_of(seed)
    golden = _golden(shape, variant)
    workers = hostinfo.visible_cores()
    plain: List[dict] = []
    layered: List[Dict[str, float]] = []
    traced_walls: List[float] = []
    started = time.perf_counter()
    while len(plain) < MAX_ITERATIONS:
        enough_time = time.perf_counter() - started >= seconds
        if traced:
            if enough_time and len(layered) >= 2:
                break
            plain.append(_iteration(shape, variant, workers, golden, False))
            spans.install_sweep(os.path.join(workdir, "trace"))
            try:
                result = _iteration(shape, variant, workers, golden, True)
                spans.RECORDER.merge_children()
                layered.append(sweep_layers(spans.RECORDER,
                                            result["accounts"]))
            finally:
                spans.uninstall()
            plain.append(result)
            traced_walls.append(result["wall_s"] * result["scale"])
        else:
            if enough_time and len(plain) >= MIN_ITERATIONS:
                break
            plain.append(_iteration(shape, variant, workers, golden, False))
    untraced = plain[::2] if traced else plain
    failures = [p for it in plain for p in it["problems"]]
    notes = [
        f"{name}: {shape.users} users x 508 Treads, {shape.rivals} rival "
        f"accounts, {workers} sweep workers, world variant {variant}",
        f"{name}: golden check per iteration: "
        + ", ".join(it["verdict"] for it in plain),
        f"{name}: iterations {len(plain)}, campaign latencies (s): "
        + ", ".join(f"{it['latency_s']:.3f}" for it in plain),
    ]
    summary = {
        "attempted": len(plain),
        "failed": sum(1 for it in plain if it["problems"]),
        "problems": failures,
        "notes": notes,
    }
    if traced:
        metrics = {key: statistics.median(d[key] for d in layered)
                   for key in layered[0]}
        metrics["trace.overhead"] = (
            statistics.median(traced_walls)
            / statistics.median(it["wall_s"] * it["scale"]
                                for it in untraced))
        summary["layers"] = metrics
        notes.append(
            f"{name}: last traced iteration's CPU over delivery + reports "
            f"{result['cpu_s']:.2f} s (self + children) vs the sweep "
            f"workers' busy time {layered[-1]['delivery.sweep_s.sum']:.2f}"
            f" s; the parent alone used {result['self_cpu_s']:.2f} s")
    else:
        summary["e2e"] = _end_to_end(plain, scaled=True)
        summary["unscaled"] = _end_to_end(plain, scaled=False)
        notes.append(f"{name}: {len(plain) * len(plain[0]['report_latencies'])}"
                     " report requests; p50 of all raw samples, p99 the "
                     f"median of {P99_WINDOW}-request windows' exact p99")
        summary["extra"] = {
            "impressions_per_s": (summary["e2e"]["throughput_per_s"], "1/s")}
    return summary


def _end_to_end(plain: List[dict], scaled: bool) -> Dict[str, float]:
    """The run's end-to-end metrics; ``scaled`` turns times into
    reference-host seconds with each iteration's calibration. The p99 is
    never scaled: the report tail does not follow the host's speed the
    way the calibration does (scaling widened its spread), see the
    README."""
    def factor(it: dict) -> float:
        return it["scale"] if scaled else 1.0

    requests = [latency * factor(it) * 1000.0 for it in plain
                for latency in it["report_latencies"]]
    raw_requests = [latency * 1000.0 for it in plain
                    for latency in it["report_latencies"]]
    return {
        "setup_s": statistics.median(it["setup_s"] * factor(it)
                                     for it in plain),
        "throughput_per_s": statistics.median(
            it["impressions"] / (it["latency_s"] * factor(it))
            for it in plain),
        "cpu_s": statistics.median(it["cpu_s"] * factor(it) for it in plain),
        "peak_rss_mb": hostinfo.peak_rss_mb(),
        "p50_ms": nearest_rank(requests, 0.50),
        "p99_ms": windowed_p99(raw_requests),
    }


def sweep_layers(recorder: spans.Recorder,
                 accounts: int) -> Dict[str, float]:
    """Per-layer numbers of one traced sweep iteration over a world with
    ``accounts`` advertiser accounts."""
    recorded = recorder.spans
    root = next(s for s in recorded if s["name"] == "iteration")
    inside = _descendants(recorded, root["id"])
    self_time = spans.self_times([root] + inside)

    def spans_named(name: str) -> List[dict]:
        return [s for s in inside if s["name"] == name]

    def total_s(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans_named(name))

    totals = recorder.totals
    values = recorder.values
    sweeps = spans_named("delivery.sweep_slots")
    busy = [s["end"] - s["start"] for s in sweeps]
    slots = sum(s.get("attrs", {}).get("slots", 0) for s in sweeps)
    filled = sum(s.get("attrs", {}).get("filled", 0) for s in sweeps)
    workers = [s for s in sweeps if s["pid"] != root["pid"]]
    certify = spans_named("parsweep.certify")
    folds = spans_named("parsweep.fold")
    fork_s = wait_s = 0.0
    if certify and workers:
        certified = certify[0]["end"]
        fork_s = max(s["start"] for s in workers) - certified
        wait_s = (min(s["start"] for s in folds) if folds
                  else max(s["end"] for s in workers)) - certified
    lower_calls = totals.get("targeting.lower", [0, 0.0, 0])
    fallbacks = values.get("targeting.fallbacks", 0.0)
    charges = totals.get("billing.charge", [0, 0.0, 0])
    parent_inside = [s for s in inside if s["pid"] == root["pid"]]
    return {
        "population.load_s": total_s("population.load"),
        "population.users": totals.get("population.register",
                                       [0, 0.0, 0])[0],
        "provider.launch_s": total_s("provider.launch"),
        "provider.ads_submitted": len(spans_named("provider.submit_ad")),
        "targeting.lower_s": (lower_calls[1] + totals.get(
            "targeting.evaluate", [0, 0.0, 0])[1]),
        "targeting.specs_lowered": lower_calls[0] - fallbacks,
        "targeting.fallback_ratio": (fallbacks / lower_calls[0]
                                     if lower_calls[0] else 0.0),
        "delivery.sweep_s.sum": sum(busy),
        "delivery.sweep_s.max": max(busy, default=0.0),
        "delivery.multi_account_s": sum(busy) if accounts > 1 else 0.0,
        "delivery.sweep_rounds": values.get("delivery.sweep_rounds", 0.0),
        "delivery.slots_auctioned": slots,
        "delivery.fill_ratio": filled / slots if slots else 0.0,
        "delivery.budget_fallback_rounds": values.get(
            "delivery.budget_fallback_rounds", 0.0),
        "parsweep.certify_s": total_s("parsweep.certify"),
        "parsweep.fork_s": fork_s,
        "parsweep.wait_s": wait_s,
        "parsweep.worker_skew": (max(busy) / min(busy)
                                 if len(workers) > 1 else 1.0),
        "parsweep.delta_bytes": values.get("parsweep.delta_bytes", 0.0),
        "parsweep.fold_s": total_s("parsweep.fold"),
        "billing.charges": charges[2],
        "billing.charge_s": charges[1],
        "reporting.report_s": total_s("reporting.report"),
        "reporting.ads": len(spans_named("reporting.report")),
        "trace.coverage": (sum(self_time[s["id"]] for s in parent_inside)
                           / (root["end"] - root["start"])),
    }


def _descendants(recorded: List[dict], root_id: int) -> List[dict]:
    by_parent: Dict[int, List[dict]] = {}
    for span in recorded:
        by_parent.setdefault(span["parent"], []).append(span)
    out, frontier = [], [root_id]
    while frontier:
        children = by_parent.get(frontier.pop(), [])
        out.extend(children)
        frontier.extend(c["id"] for c in children)
    return out
