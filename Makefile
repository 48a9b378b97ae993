# Local aliases matching the CI jobs exactly — same commands, same flags,
# so "it passes locally" means "it passes in CI".

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test pins staticcheck staticcheck-json staticcheck-baseline lint bench-smoke bench-scale bench-scale-smoke live-obs-smoke validate-bench analyze-smoke perfbench-check

test:
	$(PYTHON) -m pytest -x -q --durations=10

## The pins every host-only change must keep green and byte-identical: the
## goldens, the detached-parity and invariant fuzzers, and the live-engine
## tests.  A tier-1 subset for quick iteration; CI runs it inside `make test`.
pins:
	$(PYTHON) -m pytest -x -q tests/serving/test_vectorized_engine.py \
		tests/serving/test_observer_goldens.py tests/kernels/test_costmodel_goldens.py \
		tests/serving/test_engine_invariants.py tests/serving/test_live_engine.py

## Blocking invariant gate (numerics / determinism / obs / API / layering).
staticcheck:
	$(PYTHON) -m repro.cli staticcheck

## CI-identical JSON report (uploaded as the staticcheck-report artifact).
staticcheck-json:
	$(PYTHON) -m repro.cli staticcheck --format json --output staticcheck-report.json

## Regenerate the committed baseline. Review the diff before committing:
## every entry is a grandfathered violation someone must have justified.
staticcheck-baseline:
	$(PYTHON) -m repro.cli staticcheck --write-baseline --baseline staticcheck-baseline.json

## Advisory: requires `pip install -e .[lint]` (ruff + mypy).
lint:
	ruff check src tests
	mypy

## Benchmark fidelity and output checks (CI step of the same name): the
## Fig. 10 workload must reproduce the committed Fig. 10 means, and one
## untraced run of each workload must pass perfbench's output checks.
perfbench-check:
	$(PYTHON) -m pytest -q perfbench/test_fidelity.py
	$(PYTHON) perfbench/run.py --workload fig10_batch --seed 0 --seconds 1 --trace 0
	$(PYTHON) perfbench/run.py --workload burst_chaos --seed 0 --seconds 1 --trace 0
	$(PYTHON) perfbench/run.py --workload poisson_live --seed 0 --seconds 1 --trace 0

bench-smoke:
	$(PYTHON) benchmarks/bench_hotpath.py --smoke

## High-concurrency scaling tiers (1k/4k/10k queued requests): engine
## step-loop overhead, regression-gated at <= 256 us/step (4k+ tiers).
bench-scale:
	$(PYTHON) benchmarks/bench_hotpath.py --scale

## The reduced 1k-request variant CI runs (job: bench-scale-smoke),
## gated at <= 188 us/step.
bench-scale-smoke:
	$(PYTHON) benchmarks/bench_hotpath.py --scale --smoke

## HTTP endpoints + SLO monitor + flight recorder over an overload run.
live-obs-smoke:
	$(PYTHON) benchmarks/live_obs_smoke.py

## Schema gate for the canonical BENCH_serving.json trajectory document
## (CI runs this right after the bench smoke).
validate-bench:
	$(PYTHON) benchmarks/validate_bench.py

## Record an overload + chaos run with the cost ledger attached, then run
## the post-hoc analyzer end to end (CI job: analyze-smoke).
analyze-smoke:
	$(PYTHON) -m repro.cli top --quiet --once --faults --requests 60 \
		--emit-metrics benchmarks/results/attrib_smoke
	$(PYTHON) -m repro.cli analyze benchmarks/results/attrib_smoke.json \
		--top 5 --json benchmarks/results/attrib_analysis.json
