# Test and benchmark entry points; `make help` lists them.

PYTHON ?= python3
W ?= tall
SEED ?= 1
SEEDS ?= 1 7
PAIRS ?= 10
RUNS ?= 10
TIER1 = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -q --continue-on-collection-errors

.PHONY: help test test-deep test-ingest-deep test-psych-deep bench-smoke bench bench-pair faults \
	loc loc-diff digest digest-diff check

help:
	@echo "make test         tier-1 suite (tests/, default hypothesis profile)"
	@echo "make test-deep    the same suite with every property test on 10x the examples"
	@echo "make test-ingest-deep  the ingest route tests alone, on 10x the examples"
	@echo "make test-psych-deep   the psychometrics and acceptance tests alone, on 10x the examples"
	@echo "make bench-smoke  perfbench smoke run at tiny sizes"
	@echo "make bench        one benchmark run: W=<workload> (default tall) SEED=<n> (default 1)"
	@echo "make bench-pair   benchmark pairs, src/ of git revision BASE=<rev> against the working"
	@echo "                  tree, alternating which runs first: W=<workload> PAIRS=<n> (default"
	@echo "                  10) SEED=<s> (pair i uses SEED+i); prints each end-to-end metric's"
	@echo "                  medians and quartiles, the pairs in which the change read lower and"
	@echo "                  the median per-pair difference, marked unresolved when it is"
	@echo "                  smaller than the base's interquartile range"
	@echo "make faults       peak memory (VmHWM) of fresh processes after one gap call on"
	@echo "                  W=<workload> (default tall), then the medians of wall time, minor"
	@echo "                  page faults and CPU seconds over their warm gap calls, for the"
	@echo "                  working tree and, with BASE=<rev>, for the src/ of that revision,"
	@echo "                  alternating; inputs are written by another process: SEED=<n>"
	@echo "                  (default 1), RUNS=<n> processes per side (default 10)"
	@echo "make loc          line counts of the source modules, and their code lines"
	@echo "                  (docstrings, comments and blank lines not counted)"
	@echo "make loc-diff     code lines of each source module at git revision BASE=<rev> and in"
	@echo "                  the working tree, with each module's change and the total's"
	@echo "make digest       SHA-256 of every gap, report, validate, descriptives, reliability"
	@echo "                  and qfd output on each workload: SEED=<n> (default 1); gap runs"
	@echo "                  also with --normalize-weights --variance-mode sample"
	@echo "                  --pareto-threshold 50 and, on xyz_batch, with the weights file as"
	@echo "                  a bare means object; descriptives with --variance-mode sample;"
	@echo "                  gap and validate with --missing-policy fail where the workload"
	@echo "                  sets --missing-policy; the parsed set and the repr of its"
	@echo "                  ValidationReport of each response CSV and of its shapes: ids"
	@echo "                  outside ASCII, one loose quote, one quoted cell, one id followed"
	@echo "                  by an unquoted ,x, in a Likert CSV one 07 cell, in an importance"
	@echo "                  CSV one cell with 00 prepended, and the header line alone"
	@echo "make digest-diff  make digest with the src/ of git revision BASE=<rev> and of the"
	@echo "                  working tree at each seed of SEEDS=\"<n> ...\" (default \"1 7\"), in"
	@echo "                  turn; prints the first diff and fails on it"
	@echo "make check        the checks of a change against git revision BASE=<rev>, in turn,"
	@echo "                  stopping at the first that fails: make test, digest-diff (at"
	@echo "                  SEEDS), test-ingest-deep, test-psych-deep, bench-smoke and loc-diff"

test:
	$(TIER1)

test-deep:
	HYPOTHESIS_PROFILE=deep $(TIER1)

test-ingest-deep:
	HYPOTHESIS_PROFILE=deep $(TIER1) tests/test_ingest.py tests/test_ingest_routes.py

test-psych-deep:
	HYPOTHESIS_PROFILE=deep $(TIER1) tests/test_psychometrics.py tests/test_acceptance.py

bench-smoke:
	$(PYTHON) -m pytest -q perfbench

bench:
	$(PYTHON) perfbench/run.py --workload $(W) --seed $(SEED) --trace 0

bench-pair:
	@test -n "$(BASE)" || { echo "usage: make bench-pair BASE=<rev> [W=<workload>] [PAIRS=<n>] [SEED=<s>]" >&2; exit 2; }
	$(PYTHON) tools/bench_pair.py --base $(BASE) --workload $(W) --pairs $(PAIRS) --seed $(SEED)

faults:
	$(PYTHON) tools/faults.py --workload $(W) --seed $(SEED) --runs $(RUNS) $(if $(BASE),--base $(BASE))

loc:
	@$(PYTHON) tools/loc.py src/satmetric

# Only src/satmetric is taken from BASE; uncommitted changes count on the
# working-tree side only.
loc-diff:
	@test -n "$(BASE)" || { echo "usage: make loc-diff BASE=<rev>" >&2; exit 2; }
	@base=$$(mktemp -d) && trap 'rm -rf "$$base"' EXIT && \
	git archive "$(BASE)" src/satmetric | tar -x -C "$$base" && \
	$(PYTHON) tools/loc.py --diff "$$base/src/satmetric" src/satmetric

digest:
	@PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) tools/digest.py --seed $(SEED)

# Only src/ is taken from BASE: both sides run this tree's tools/digest.py and
# perfbench workloads, so a digest that gains lines still compares cleanly.
# Uncommitted changes count on the working-tree side only.
digest-diff:
	@test -n "$(BASE)" || { echo "usage: make digest-diff BASE=<rev> [SEEDS=\"<n> ...\"]" >&2; exit 2; }
	@base=$$(mktemp -d) && trap 'rm -rf "$$base"' EXIT && \
	git archive "$(BASE)" src | tar -x -C "$$base" && \
	for seed in $(SEEDS); do \
		PYTHONPATH="$$base/src" $(PYTHON) tools/digest.py --seed $$seed > "$$base/digest.txt" && \
		PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) tools/digest.py --seed $$seed \
			| diff "$$base/digest.txt" - && echo "no difference from $(BASE) at SEED=$$seed" \
			|| exit 1; \
	done

check:
	@test -n "$(BASE)" || { echo "usage: make check BASE=<rev> [SEEDS=\"<n> ...\"]" >&2; exit 2; }
	$(MAKE) --no-print-directory test
	$(MAKE) --no-print-directory digest-diff
	$(MAKE) --no-print-directory test-ingest-deep
	$(MAKE) --no-print-directory test-psych-deep
	$(MAKE) --no-print-directory bench-smoke
	$(MAKE) --no-print-directory loc-diff
