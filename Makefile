PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test docs-check bench bench-update bench-session bench-batch bench-broker bench-gate bench-e2e bench-e2e-ab lint coverage profile chaos

## Coverage ratchet for the CI coverage job: fail below this line rate.
## Raise it when coverage grows; never lower it to make a PR pass.
COV_MIN ?= 75

## Tier-1 verification: the full test suite plus the benchmark harness.
test:
	$(PYTHON) -m pytest -x -q

## Static checks (ruff check, no autofix; configuration in ruff.toml).
## CI installs ruff; locally: pip install ruff.
lint:
	$(PYTHON) -m ruff check src tests benchmarks examples

## Execute every fenced shell command in README.md's Quickstart section
## (smoke mode), so the documentation cannot rot silently.
docs-check:
	$(PYTHON) -m pytest tests/test_docs.py -q

## Refresh the tracked model benchmarks (writes BENCH_model.json).  Only
## the bench targets pass --bench-export; `make test` never rewrites the
## baseline.
bench:
	$(PYTHON) -m pytest benchmarks/test_bench_predict.py benchmarks/test_bench_model_update.py -q \
		--bench-export

## Refresh only the model-update benchmark group (the SMC update kernel):
## the quick loop when iterating on the update path.
bench-update:
	$(PYTHON) -m pytest benchmarks/test_bench_model_update.py -q --bench-export \
		-k "particle_update or dynamic_tree_update"

## Refresh the ask/tell session dispatch-overhead group (session-driven
## run vs the frozen inline loop; also asserts < 5% dispatch overhead).
bench-session:
	$(PYTHON) -m pytest benchmarks/test_bench_session_overhead.py -q --bench-export

## Refresh the batch-acquisition group: one ask(5) batch cycle vs five
## ask(1) cycles from the same primed session.
bench-batch:
	$(PYTHON) -m pytest benchmarks/test_bench_batch_ask.py -q --bench-export

## Refresh the broker-overhead group (bare ProfilerBroker vs the
## ResilientBroker happy path; also asserts < 5% wrapper overhead).
bench-broker:
	$(PYTHON) -m pytest benchmarks/test_bench_broker_overhead.py -q --bench-export

## Chaos suite: fault injection, retry/quarantine, and the bit-identity
## contract under a fresh random fault schedule each run.  The chosen
## seed is echoed in the pytest header; pin a failing schedule with
## CHAOS_SEED=N.
chaos:
	$(PYTHON) -m pytest tests/test_chaos.py -q \
		$(if $(CHAOS_SEED),--chaos-seed $(CHAOS_SEED))

## Fail on >20% mean-time regressions in the gated benchmark groups.
bench-gate:
	$(PYTHON) benchmarks/check_regression.py

## End-to-end benchmark (BENCHMARK.json): both workloads for one seed,
## 30 s each; the last line of each run is its JSON result.  A/B two
## commits by running this in each checkout with alternating seeds.
SEED ?= 1
bench-e2e:
	$(PYTHON) e2ebench/run.py --workload laptop-suite --seed $(SEED) --seconds 30
	$(PYTHON) e2ebench/run.py --workload sharded-table1 --seed $(SEED) --seconds 30

## A/B the end-to-end benchmark: REF (exported with git archive) against
## the worktree, seeds 1..PAIRS, the two sides run back to back in
## alternating order.  Runs every workload, or those WORKLOADS names
## (comma-separated).  Prints every pair's end-to-end metrics, each
## metric's median change and in how many pairs it got better; cite its
## summary for a perf claim.
REF ?= HEAD
PAIRS ?= 5
WORKLOADS ?=
bench-e2e-ab:
	$(PYTHON) benchmarks/e2e_ab.py $(REF) --pairs $(PAIRS) --workloads "$(WORKLOADS)"

## cProfile a smoke-scale table1 run: per-unit .prof dumps plus a merged
## top-25 cumulative summary in $(PROFILE_DIR)/profile.txt.  Override the
## artifact subset with PROFILE_ONLY=... and the directory with
## PROFILE_DIR=...
PROFILE_DIR ?= profile
PROFILE_ONLY ?= table1
profile:
	$(PYTHON) -m repro.experiments.run_all --scale smoke \
		--only $(PROFILE_ONLY) --profile $(PROFILE_DIR)

## Test-suite line coverage with the ratchet threshold (needs pytest-cov,
## installed by the CI coverage job; locally: pip install pytest-cov).
coverage:
	$(PYTHON) -m pytest -q --cov=repro --cov-report=term-missing \
		--cov-fail-under=$(COV_MIN)
