# Developer entry points.  `make smoke` is the PR gate: tier-1 tests
# plus one cached parallel suite run end-to-end (see scripts/smoke.sh),
# including the incremental figure pipeline.  `make figures` regenerates
# every paper artifact into figures/ — incrementally, against .repro-cache.
# `make bench-paper` runs the paper-grid benchmark (paperbench/, see
# docs/performance.md); `make bench-pairs` compares it against a parent.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test check typecheck deadcode smoke figures figures-smoke \
	obs-smoke bench bench-check bench-dir bench-gate bench-paper \
	bench-pairs clean-cache

test:
	$(PYTHON) -m pytest -x -q

# The typed-core and style gates, when the external tools are
# installed (CI always runs them; a bare dev container may not have
# them).  The repo's own source rules are tier-1 tests
# (tests/test_source_rules.py; see docs/static-analysis.md).
check:
	$(MAKE) typecheck
	@if $(PYTHON) -c "import ruff" >/dev/null 2>&1 || command -v ruff >/dev/null 2>&1; then \
		ruff check src tests scripts; \
	else \
		echo "ruff not installed; skipping style gate (CI runs it)"; \
	fi

typecheck:
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy --strict src/repro/exec src/repro/figures \
			src/repro/obs src/repro/scenarios; \
	else \
		echo "mypy not installed; skipping typed-core gate (CI runs it)"; \
	fi

# the src/repro functions no entry point enters: the tally, then the
# list (scripts/deadcode; docs/static-analysis.md, "Finding dead
# code"); about five minutes on a 2-vCPU VM
deadcode:
	bash scripts/deadcode/run.sh

smoke: test
	bash scripts/smoke.sh

figures:
	$(PYTHON) -m repro figures build --jobs 0 --progress \
		--cache-dir .repro-cache --out-dir figures

figures-smoke:
	bash scripts/smoke_figures.sh

obs-smoke:
	bash scripts/smoke_obs.sh

bench:
	$(PYTHON) -m repro bench

bench-check:
	$(PYTHON) -m repro bench --check

# the PR 7 flush-storm microbenchmark, full work size
bench-dir:
	$(PYTHON) -m repro bench --bench bench_directory

# the CI regression gate against the committed baseline
bench-gate:
	$(PYTHON) -m repro bench --check --compare BENCH_baseline.json

# the paper-grid benchmark: every workload (or WORKLOAD=...) for
# SECONDS seconds each; the last line of each run is its JSON result
WORKLOAD ?= paper-cold seeds-pool figures-warm
SECONDS ?= 20

bench-paper:
	@for workload in $(WORKLOAD); do \
		$(PYTHON) paperbench/run.py --workload $$workload \
			--seconds $(SECONDS) || exit 1; \
	done

# alternating pairs of the git ref BASE and the working tree, PAIRS per
# workload (scripts/bench_pairs.py); CLAIM=METRIC prints the gain verdict
BASE ?= HEAD
PAIRS ?= 10
SEED ?= 0

bench-pairs:
	$(PYTHON) scripts/bench_pairs.py --base $(BASE) --pairs $(PAIRS) \
		--seconds $(SECONDS) --seed $(SEED) --workload $(WORKLOAD) \
		$(if $(CLAIM),--claim $(CLAIM))

clean-cache:
	rm -rf .repro-cache .smoke-cache .smoke-figures \
		.smoke-obs obs figures
