PYTHON ?= python
export PYTHONPATH := src:.

.PHONY: test equivalence bench bench-perf check service-smoke scale-smoke \
	perfbench-check

## Tier-1 test suite (the gate every change must keep green).
test:
	$(PYTHON) -m pytest -q

## The equivalence properties the delivery fast paths rest on:
## compiled == interpreted targeting, mask program == matcher, and the
## sweep's packed-word claim == the unpacked argmax auction.
equivalence:
	$(PYTHON) -m pytest -q tests/platform/test_targeting_compile.py \
		tests/platform/test_mask_lowering.py \
		tests/platform/test_sweep_delivery.py::TestClaimKernel

## Paper-reproduction benchmarks, single run each (fast, shape checks).
bench:
	$(PYTHON) -m pytest -q benchmarks/ --benchmark-disable

## Delivery throughput tiers with real pytest-benchmark statistics.
bench-perf:
	$(PYTHON) -m pytest benchmarks/bench_perf_throughput.py --benchmark-only

## The columnar scale tiers: the 100k-user scalar sweep and the 100k
## batch-sweep comparison (byte-identical reports, >=3x impressions/s)
## CI runs under a hard RSS ceiling; the full million-user proof is
## REPRO_SCALE_1M=1 (numbers land in perf_trajectory.json scale_1m).
scale-smoke:
	$(PYTHON) -m pytest -q \
		benchmarks/bench_scale_1m.py::test_scale_100k_columnar_sweep \
		benchmarks/bench_scale_1m.py::test_scale_100k_batch_sweep \
		--benchmark-disable
	$(PYTHON) -m repro populate --users 100000 --columnar --stats

## The benchmark's correctness checks on a short run of each sweep
## workload: perfbench/run.py exits non-zero when any iteration's
## reports differ from the scalar loop's perfbench/golden.json.
perfbench-check:
	python3 perfbench/run.py --workload sweep --seed 1 --seconds 3 \
		--trace 0
	python3 perfbench/run.py --workload contested --seed 1 --seconds 3 \
		--trace 0

## The gateway kill drill + 60s HTTP/in-process equivalence soak, both
## serving backends (what the CI service-smoke matrix runs).
service-smoke:
	$(PYTHON) benchmarks/service_smoke.py --backend thread \
		--out-dir service-smoke-thread
	$(PYTHON) benchmarks/service_smoke.py --backend process \
		--out-dir service-smoke-process

## What CI runs: tier-1 suite (includes the equivalence tests) plus the
## benchmark shape checks.
check: test bench
