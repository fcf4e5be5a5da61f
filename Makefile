.PHONY: all build test bench bench-quick bench-gate scale-smoke \
	scale-smoke-sharded hoststack-smoke reorder-smoke figures golden ci \
	doc coverage coverage-summary lint-box perf-ab clean

all: build

build:
	dune build @all

test:
	dune runtest

# Full test run with output archived, as used for the release record.
test-record:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

bench:
	dune exec bench/main.exe

bench-record:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

# Quick perf snapshot: bench-scale Figs. 2/3/6, the bechamel
# micro-benchmarks, the allocation suite (bytes/packet and bytes/ACK
# across all sender variants), the many-flow scale suite, the
# engine-only churn suite and the sharded sweep. Prints only; the
# allocation quotients are pinned by test/test_alloc.ml under
# `dune runtest`. BENCH_JOBS=N parallelises the figure grids.
bench-quick:
	dune exec bench/main.exe -- quick

# Same-run perf gate: the events/sec scaling floor at 10k vs 1k flows
# and the sharded scaling floor (4-domain events/sec >= 1.8x 1-domain;
# skipped below 4 cores). Each stage compares two measurements from
# the same run on the same machine. Allocation is gated exactly by
# `dune runtest` (test/test_alloc.ml); wall-clock A/B is `make perf-ab`.
bench-gate:
	dune exec bench/main.exe -- gate

# Float-boxing tripwire: recompile the integer-ns scheduling core
# (time / event_queue / timer_wheel / engine) and the packet path
# (link / network / packet_pool / epsilon_routing) with dune's own
# ocamlopt command plus -dcmm, and fail if any hot function boxes a
# float outside the documented seconds boundary (DESIGN.md §15). Runs as a non-fatal ci stage: a
# finding warrants investigation, not an automatic red build, since
# the Cmm shapes it greps are compiler-version-sensitive.
lint-box:
	sh tools/lint_box.sh

# Same-machine A/B of the end-to-end benchmark: builds BASE in a
# throwaway git worktree under _build/, runs WORKLOAD with
# `perfbench/run.py` on base and head over seeds 1..PAIRS (swapping
# which side runs first each pair), and prints each metric's medians,
# head/base ratio, pairs won, whether the head median is worse than
# the metric's BENCHMARK.json bound allows, and ranges (exit 1 if any
# run reports correct: false). E.g.
#   make perf-ab BASE=HEAD WORKLOAD=churn-10k PAIRS=3 SECONDS=30
PAIRS ?= 3
SECONDS ?= 30
perf-ab:
	sh tools/perf_ab.sh "$(BASE)" "$(WORKLOAD)" "$(PAIRS)" "$(SECONDS)"

# One-point smoke of the many-flow scale scenario: 1k concurrent flow
# slots for one simulated second.
scale-smoke:
	dune exec -- bin/tcp_pr_sim.exe scale --flows 1000 --duration 1

# Sharded smoke: the partitioned scenario at 1k flows on 2 domains,
# with the invariant monitors armed per cell and the merged probe
# trace required byte-identical to the --domains 1 baseline (exit 1
# on any violation or digest mismatch).
scale-smoke-sharded:
	dune exec -- bin/tcp_pr_sim.exe scale --flows 1000 --duration 1 \
	  --domains 2 --check-merge

# Host-stack layer smoke: the buffer-pressure sweep (finite receive
# buffer, rwnd autotuning, GRO coalescing) at quick scale — exercises
# zero-window persistence and window reopening across three variants.
hoststack-smoke:
	dune exec -- bin/tcp_pr_sim.exe hoststack --quick

# Adaptive-adversary smoke: the closed-loop reordering dial at quick
# scale — every sender variant must end an epsilon search holding the
# target measured reordering density within tolerance (exit 1 on any
# MISS, with per-epoch controller traces for the failing variants).
reorder-smoke:
	dune exec -- bin/tcp_pr_sim.exe adversary --quick

# FIGURE_JOBS=N sets the domain count for the experiment grids
# (default: the machine's cores; output is identical at any N).
FIGURE_JOBS ?=
FIGURE_FLAGS := $(if $(FIGURE_JOBS),--jobs $(FIGURE_JOBS))

# Regenerate every paper figure and extension table at full scale
# (about half an hour; see results/ for the archived outputs).
figures:
	mkdir -p results
	dune exec -- bin/tcp_pr_sim.exe fig2 $(FIGURE_FLAGS) > results/fig2.txt
	dune exec -- bin/tcp_pr_sim.exe fig3 $(FIGURE_FLAGS) > results/fig3.txt
	dune exec -- bin/tcp_pr_sim.exe fig4 $(FIGURE_FLAGS) > results/fig4.txt
	dune exec -- bin/tcp_pr_sim.exe fig6 $(FIGURE_FLAGS) > results/fig6.txt
	dune exec -- bin/tcp_pr_sim.exe fig6 --extended $(FIGURE_FLAGS) > results/fig6_extended.txt
	dune exec -- bin/tcp_pr_sim.exe flaps $(FIGURE_FLAGS) > results/flaps.txt
	dune exec -- bin/tcp_pr_sim.exe jitter $(FIGURE_FLAGS) > results/jitter.txt
	dune exec -- bin/tcp_pr_sim.exe manet $(FIGURE_FLAGS) > results/manet.txt
	dune exec -- bin/tcp_pr_sim.exe hoststack $(FIGURE_FLAGS) > results/hoststack.txt
	dune exec -- bin/tcp_pr_sim.exe ablate all $(FIGURE_FLAGS) > results/ablations.txt

# Regenerate the golden conformance traces and the report snapshot
# under test/golden/ (only after an intended behaviour change; the
# directory is checked in and verified by `dune runtest` and `make ci`).
golden:
	dune exec -- bin/tcp_pr_sim.exe check --seeds 0 --write-golden test/golden
	dune exec -- bin/tcp_pr_sim.exe report --jobs 1 --out test/golden/report.txt

# Line-coverage report via bisect_ppx. Every library carries an
# (instrumentation (backend bisect_ppx)) stanza, which is inert unless
# the backend is installed and --instrument-with is passed — so this
# target degrades to a notice on machines without bisect_ppx instead of
# failing the build.
coverage:
	@if ocamlfind query bisect_ppx >/dev/null 2>&1; then \
	  rm -rf _coverage && mkdir -p _coverage; \
	  BISECT_FILE=$$(pwd)/_coverage/bisect \
	    dune runtest --force --instrument-with bisect_ppx && \
	  bisect-ppx-report html --coverage-path _coverage -o _coverage/html && \
	  bisect-ppx-report summary --coverage-path _coverage; \
	  echo "coverage report: _coverage/html/index.html"; \
	else \
	  echo "bisect_ppx not installed — skipping coverage"; \
	fi

coverage-summary:
	@if ocamlfind query bisect_ppx >/dev/null 2>&1; then \
	  bisect-ppx-report summary --coverage-path _coverage; \
	else \
	  echo "bisect_ppx not installed — no coverage summary"; \
	fi

# Full gate: build everything, run the test suite (which includes the
# pinned bytes/packet, bytes/ACK and bytes/event readings of
# test_alloc), a conformance smoke run — fixed random scenarios over
# every sender variant with the invariant monitors armed, plus the
# golden-trace digests — the many-flow scale smoke, the sharded merge
# smoke, the host-stack and adaptive-adversary smokes, and the
# same-run perf gate (events/sec scaling floor + sharded scaling
# floor), then the non-fatal float-boxing lint over the scheduling
# core.
ci:
	dune build @all
	dune runtest
	dune exec -- bin/tcp_pr_sim.exe check --seeds 30 --golden test/golden
	$(MAKE) --no-print-directory scale-smoke
	$(MAKE) --no-print-directory scale-smoke-sharded
	$(MAKE) --no-print-directory hoststack-smoke
	$(MAKE) --no-print-directory reorder-smoke
	dune exec bench/main.exe -- gate
	-$(MAKE) --no-print-directory lint-box
	-@$(MAKE) --no-print-directory coverage

doc:
	dune build @doc

clean:
	dune clean
