PYTHONPATH := src

.PHONY: test lint bench-spine bench-resilience bench-reuse bench-overload bench-updates bench-full profile serve

test:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -x -q

# Static-analysis gate (docs/static-analysis.md): ruff + scoped strict mypy
# when available (CI installs them; offline containers may not have them),
# then the project's own invariant linter — always, it has no dependencies
# beyond the stdlib.  LINT_REPORT.json is the machine-readable artifact CI
# uploads.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping (pip install ruff)"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy --config-file pyproject.toml; \
	else \
		echo "mypy not installed; skipping (pip install mypy)"; \
	fi
	PYTHONPATH=$(PYTHONPATH) python -m repro.lint src tests --report LINT_REPORT.json

# Measurement-spine smoke (BENCHMARK.json, benchmarks/spine/README.md): two
# traced runs with the correctness gate, the smallest workload and the
# overlapping UQ2 at seed 0 (whose warm-up draw once left a surplus that a
# later sample_block served with zero attempts); each fails unless the last
# stdout line (the contract JSON) reports "correct": true.  Also the check
# that the frozen harness still finds every public call it makes.
bench-spine:
	python3 benchmarks/spine/run.py --workload uq1_sf005 --seed 100 --trace 1 --smoke \
		| tee /dev/stderr | tail -n 1 | grep -q '"correct": true'
	python3 benchmarks/spine/run.py --workload uq2_sf05 --seed 0 --trace 1 --smoke \
		| tee /dev/stderr | tail -n 1 | grep -q '"correct": true'

# cProfiles of the aggregate hot path and of the union sampler's first 1 000
# samples (UQ1 at SF 0.05); top-25 cumulative saved under benchmarks/profiles/
# (see docs/performance.md).
profile:
	PYTHONPATH=$(PYTHONPATH) python benchmarks/profile_aggregate.py
	PYTHONPATH=$(PYTHONPATH) python benchmarks/profile_union.py

# Shard-supervision benchmark (fault-free overhead budget + chaos recovery):
# writes BENCH_resilience.json (see docs/resilience.md).
bench-resilience:
	PYTHONPATH=$(PYTHONPATH) python benchmarks/bench_resilience.py

# Incremental-update benchmark (delta maintenance vs full rebuild under an
# RF1/RF2 refresh stream): writes BENCH_updates.json at the root.
bench-updates:
	PYTHONPATH=$(PYTHONPATH) python benchmarks/bench_updates.py

# Overload robustness benchmark (fault-free overhead budget, 5x offered-load
# shedding with structured Retry-After + bit-identical replays, transport
# chaos drain-to-zero): writes BENCH_overload.json (see docs/overload.md).
bench-overload:
	PYTHONPATH=$(PYTHONPATH) python benchmarks/bench_overload.py

# Cross-query sample-cache benchmark (repeated-with-variation aggregates,
# cached vs cold, 5x speedup + cold-purity hard gates): writes
# BENCH_reuse.json at the root (see docs/cache.md).
bench-reuse:
	PYTHONPATH=$(PYTHONPATH) python benchmarks/bench_reuse_cache.py

# Run the sampling server on the default port (see docs/server.md).
serve:
	PYTHONPATH=$(PYTHONPATH) python -m repro serve

# Full pytest-benchmark harness (paper figures and ablations).
bench-full:
	PYTHONPATH=$(PYTHONPATH) python -m pytest benchmarks/ --benchmark-only -q
