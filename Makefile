# Developer entry points.  The tier-1 command is the contract: it must stay
# green on every commit (see ROADMAP.md).

PY ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test claims bench bench-check bench-figs sweep-smoke sweep-smoke-tcp search-smoke lint lint-fixtures

## Tier-1: fast unit/integration suite (the gate for every PR).
test:
	$(PY) -m pytest -x -q

## The paper's headline claims over the full matrix (24 apps x 3 services x
## {pliant, precise} x seeds 1-5, serial, uncached): QoS restored on every
## pair, precise always violating, ~2.1% mean and <= 5.5% worst quality loss.
## `make test` asserts the same (tests/integration/test_paper_claims.py); this
## target also shows the per-seed spreads.
claims:
	$(PY) scripts/check_claims.py

## Sweep-engine benchmark: measures parallel/cached/vectorized speedups and
## the distributed-vs-serial gap, then records perfbench's end-to-end
## metrics on all four workloads (perfbench/run.py --trace 0); appends
## trajectory entries to BENCH_sweep.json.
bench:
	$(PY) -m pytest benchmarks/test_sweep_engine.py benchmarks/test_adaptive_search.py -m benchmark -q
	$(PY) scripts/bench_perfbench.py

## Distributed-backend smoke: >= 32-scenario grid through a two-worker local
## fleet with a mid-sweep worker kill; asserts bit-identity with the serial
## pass and a >= 95% warm cache rerun.  Filesystem spool transport.
sweep-smoke:
	$(PY) -m pytest benchmarks/test_distributed_sweep.py -m benchmark -q -k filesystem

## Same smoke over the asyncio TCP broker (REPRO_SWEEP_SPOOL=tcp://host:port).
sweep-smoke-tcp:
	$(PY) -m pytest benchmarks/test_distributed_sweep.py -m benchmark -q -k tcp

## Adaptive-search smoke: budgeted halving over a 256-point space must
## evaluate <= 25% of it and land within 5% of the exhaustive optimum;
## records adaptive_vs_exhaustive in BENCH_sweep.json.
search-smoke:
	$(PY) -m pytest benchmarks/test_adaptive_search.py -m benchmark -q

## Full figure-reproduction drivers (Figs. 1-10, ~minutes).
bench-figs:
	$(PY) -m pytest benchmarks -m benchmark -q

## Trajectory hygiene: BENCH_sweep.json parses and is monotone-appended.
bench-check:
	$(PY) scripts/bench_check.py

## Import/syntax floor plus repro-lint: byte-compile everything, then
## enforce the determinism/lease-clock/distributed-safety invariants
## (strict: stale baseline entries fail too).
lint:
	$(PY) -m compileall -q src tests benchmarks examples scripts
	$(PY) -m repro.analysis --strict

## Sanity-check the lint fixture corpus: every bad fixture must still
## fail its zone's rules, every good fixture must stay clean.  Guards
## against a rule silently going blind.  Single files exercise the
## per-file rules under a forced zone; the directories under
## fixtures/project/ are miniature projects exercising the cross-file
## rules (taint chains, lock order, schema drift).
lint-fixtures:
	@for f in tests/analysis/fixtures/*/bad_*.py; do \
		zone=$$(basename $$(dirname $$f)); \
		if $(PY) -m repro.analysis --no-baseline --zone $$zone $$f >/dev/null; then \
			echo "lint-fixtures: $$f unexpectedly passed"; exit 1; \
		fi; \
	done
	@for f in tests/analysis/fixtures/*/good_*.py; do \
		zone=$$(basename $$(dirname $$f)); \
		if ! $(PY) -m repro.analysis --no-baseline --zone $$zone $$f >/dev/null; then \
			echo "lint-fixtures: $$f unexpectedly failed"; exit 1; \
		fi; \
	done
	@for d in tests/analysis/fixtures/project/bad_*/; do \
		if $(PY) -m repro.analysis --no-baseline --root $$d $$d >/dev/null; then \
			echo "lint-fixtures: $$d unexpectedly passed"; exit 1; \
		fi; \
	done
	@for d in tests/analysis/fixtures/project/good_*/; do \
		if ! $(PY) -m repro.analysis --no-baseline --root $$d $$d >/dev/null; then \
			echo "lint-fixtures: $$d unexpectedly failed"; exit 1; \
		fi; \
	done
	@echo "lint-fixtures: ok"
