GO ?= go

# Pinned analysis-tool versions: CI installs exactly these; locally the
# targets run whatever is on PATH and skip (with the install hint) when the
# tool is absent, so `make ci` works on an offline machine.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

# Directory the determinism target writes its paired run outputs into; CI
# uploads it as a workflow artifact when the diff fails.
DETERMINISM_OUT ?= determinism-out

.PHONY: all fmt-check vet build test bench-test test-race staticcheck \
	govulncheck bench-smoke ablation-smoke determinism bench-json bench-gate \
	bench-crosscheck profile figures-diff ci

all: ci

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench/ is a module of its own (replace repro => ../), so the root
# `go test ./...` never builds it; this runs its smoke, golden-check and
# metric tests (about 2 s).
bench-test:
	$(GO) -C bench test ./...

# The simulation is single-goroutine by design, but the race detector still
# catches unsynchronised state sneaking into the event machinery.
test-race:
	$(GO) test -race ./...

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not on PATH; skipping (CI installs honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not on PATH; skipping (CI installs golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# One fast benchmark iteration per figure family — paper figures 4 and 5,
# epoll (figure 15) and compio at 501 inactive, the keep-alive hot path,
# poll in the overload figure, the slow-loris workload, and the gated
# scale points at their own 10000 and 100000 connections — exercising the
# benchmark plumbing end to end without the full sweep.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Figure/fig0[45]/|Figure/fig15/|Point/ext-compio-load501|Figure/keepalive/|Point/ext-cached-sendfile|Figure/fig19/normal_poll/rate=(700|1300)$$|Figure/fig22/(normal_poll|devpoll)/rate=1000$$|Point/scale-10000-(poll|epoll)-rate|Point/scale-100000-epoll-rate' -benchtime 1x -figconns 800 .

# Every ablation at a small connection count: a fast end-to-end pass through
# all server families and both dual-mechanism switching paths, so
# dispatch-loop regressions fail the workflow even when unit tests miss them.
ablation-smoke:
	$(GO) run ./cmd/benchfig -ablation -connections 600 -quiet > /dev/null

# The simulation promises byte-identical output for identical inputs AND for
# any kernel thread count; run one rate figure, the two multi-worker figures
# (at 2000 connections, so every worker count's run outlasts the sample
# interval and prints non-zero rates), one overload-workload figure, one
# server-push figure and one chaos figure (fig 41: seeded fault injection is
# part of the promise) twice each, plus every ablation, and diff, then re-run
# the rate, overload, push and chaos figures and the ablations on the sharded
# parallel kernel at -threads 2 and 8 and diff those against the sequential
# output. Fig 18 also runs at -threads 2: its round-robin sharding and
# handoff curves must fall back to the sequential engine unchanged. Any map iteration,
# wall-clock dependency or cross-shard ordering leak sneaking into the event
# machinery fails this before it can corrupt a figure comparison. Outputs
# stay in $(DETERMINISM_OUT) so CI can attach them to the failed workflow run.
determinism:
	@rm -rf $(DETERMINISM_OUT) && mkdir -p $(DETERMINISM_OUT)
	$(GO) run ./cmd/benchfig -fig 12 -connections 600 -quiet > $(DETERMINISM_OUT)/fig12-a.txt
	$(GO) run ./cmd/benchfig -fig 12 -connections 600 -quiet > $(DETERMINISM_OUT)/fig12-b.txt
	$(GO) run ./cmd/benchfig -fig 17 -connections 2000 -quiet > $(DETERMINISM_OUT)/fig17-a.txt
	$(GO) run ./cmd/benchfig -fig 17 -connections 2000 -quiet > $(DETERMINISM_OUT)/fig17-b.txt
	$(GO) run ./cmd/benchfig -fig 18 -connections 2000 -quiet > $(DETERMINISM_OUT)/fig18-a.txt
	$(GO) run ./cmd/benchfig -fig 18 -connections 2000 -quiet > $(DETERMINISM_OUT)/fig18-b.txt
	$(GO) run ./cmd/benchfig -fig 18 -connections 2000 -threads 2 -quiet > $(DETERMINISM_OUT)/fig18-t2.txt
	$(GO) run ./cmd/benchfig -fig 20 -connections 600 -percentiles -quiet > $(DETERMINISM_OUT)/fig20-a.txt
	$(GO) run ./cmd/benchfig -fig 20 -connections 600 -percentiles -quiet > $(DETERMINISM_OUT)/fig20-b.txt
	$(GO) run ./cmd/benchfig -fig 33 -connections 600 -quiet > $(DETERMINISM_OUT)/fig33-a.txt
	$(GO) run ./cmd/benchfig -fig 33 -connections 600 -quiet > $(DETERMINISM_OUT)/fig33-b.txt
	$(GO) run ./cmd/benchfig -fig 12 -connections 600 -threads 2 -quiet > $(DETERMINISM_OUT)/fig12-t2.txt
	$(GO) run ./cmd/benchfig -fig 12 -connections 600 -threads 8 -quiet > $(DETERMINISM_OUT)/fig12-t8.txt
	$(GO) run ./cmd/benchfig -fig 20 -connections 600 -percentiles -threads 2 -quiet > $(DETERMINISM_OUT)/fig20-t2.txt
	$(GO) run ./cmd/benchfig -fig 20 -connections 600 -percentiles -threads 8 -quiet > $(DETERMINISM_OUT)/fig20-t8.txt
	$(GO) run ./cmd/benchfig -fig 33 -connections 600 -threads 2 -quiet > $(DETERMINISM_OUT)/fig33-t2.txt
	$(GO) run ./cmd/benchfig -fig 33 -connections 600 -threads 8 -quiet > $(DETERMINISM_OUT)/fig33-t8.txt
	$(GO) run ./cmd/benchfig -fig 37 -connections 2000 -quiet > $(DETERMINISM_OUT)/fig37-a.txt
	$(GO) run ./cmd/benchfig -fig 37 -connections 2000 -quiet > $(DETERMINISM_OUT)/fig37-b.txt
	$(GO) run ./cmd/benchfig -fig 37 -connections 2000 -threads 2 -quiet > $(DETERMINISM_OUT)/fig37-t2.txt
	$(GO) run ./cmd/benchfig -fig 37 -connections 2000 -threads 8 -quiet > $(DETERMINISM_OUT)/fig37-t8.txt
	$(GO) run ./cmd/benchfig -fig 41 -connections 2000 -quiet > $(DETERMINISM_OUT)/fig41-a.txt
	$(GO) run ./cmd/benchfig -fig 41 -connections 2000 -quiet > $(DETERMINISM_OUT)/fig41-b.txt
	$(GO) run ./cmd/benchfig -fig 41 -connections 2000 -threads 2 -quiet > $(DETERMINISM_OUT)/fig41-t2.txt
	$(GO) run ./cmd/benchfig -fig 41 -connections 2000 -threads 8 -quiet > $(DETERMINISM_OUT)/fig41-t8.txt
	$(GO) run ./cmd/benchfig -ablation -connections 600 -quiet > $(DETERMINISM_OUT)/ablation-a.txt
	$(GO) run ./cmd/benchfig -ablation -connections 600 -quiet > $(DETERMINISM_OUT)/ablation-b.txt
	$(GO) run ./cmd/benchfig -ablation -connections 600 -threads 2 -quiet > $(DETERMINISM_OUT)/ablation-t2.txt
	$(GO) run ./cmd/benchfig -ablation -connections 600 -threads 8 -quiet > $(DETERMINISM_OUT)/ablation-t8.txt
	@diff $(DETERMINISM_OUT)/fig12-a.txt $(DETERMINISM_OUT)/fig12-b.txt \
		&& diff $(DETERMINISM_OUT)/fig17-a.txt $(DETERMINISM_OUT)/fig17-b.txt \
		&& diff $(DETERMINISM_OUT)/fig18-a.txt $(DETERMINISM_OUT)/fig18-b.txt \
		&& diff $(DETERMINISM_OUT)/fig18-a.txt $(DETERMINISM_OUT)/fig18-t2.txt \
		&& diff $(DETERMINISM_OUT)/fig20-a.txt $(DETERMINISM_OUT)/fig20-b.txt \
		&& diff $(DETERMINISM_OUT)/fig33-a.txt $(DETERMINISM_OUT)/fig33-b.txt \
		&& diff $(DETERMINISM_OUT)/fig12-a.txt $(DETERMINISM_OUT)/fig12-t2.txt \
		&& diff $(DETERMINISM_OUT)/fig12-a.txt $(DETERMINISM_OUT)/fig12-t8.txt \
		&& diff $(DETERMINISM_OUT)/fig20-a.txt $(DETERMINISM_OUT)/fig20-t2.txt \
		&& diff $(DETERMINISM_OUT)/fig20-a.txt $(DETERMINISM_OUT)/fig20-t8.txt \
		&& diff $(DETERMINISM_OUT)/fig33-a.txt $(DETERMINISM_OUT)/fig33-t2.txt \
		&& diff $(DETERMINISM_OUT)/fig33-a.txt $(DETERMINISM_OUT)/fig33-t8.txt \
		&& diff $(DETERMINISM_OUT)/fig37-a.txt $(DETERMINISM_OUT)/fig37-b.txt \
		&& diff $(DETERMINISM_OUT)/fig37-a.txt $(DETERMINISM_OUT)/fig37-t2.txt \
		&& diff $(DETERMINISM_OUT)/fig37-a.txt $(DETERMINISM_OUT)/fig37-t8.txt \
		&& diff $(DETERMINISM_OUT)/fig41-a.txt $(DETERMINISM_OUT)/fig41-b.txt \
		&& diff $(DETERMINISM_OUT)/fig41-a.txt $(DETERMINISM_OUT)/fig41-t2.txt \
		&& diff $(DETERMINISM_OUT)/fig41-a.txt $(DETERMINISM_OUT)/fig41-t8.txt \
		&& diff $(DETERMINISM_OUT)/ablation-a.txt $(DETERMINISM_OUT)/ablation-b.txt \
		&& diff $(DETERMINISM_OUT)/ablation-a.txt $(DETERMINISM_OUT)/ablation-t2.txt \
		&& diff $(DETERMINISM_OUT)/ablation-a.txt $(DETERMINISM_OUT)/ablation-t8.txt \
		&& echo "determinism: OK (incl. -threads 2/8 matrix)"

# Refresh the committed benchmark baseline: the key figure points' reply
# rates, p99 latencies and ns/op. Run this (and commit the result) in any PR
# that intentionally moves performance.
bench-json:
	$(GO) run ./cmd/benchgate -emit BENCH_PR21.json

# Gate the working tree against the committed baseline: emit a fresh
# candidate and fail on >5% regression in any simulated metric (reply rate,
# p99). Wall-clock ns/op is a gross-slowdown tripwire only (fail past 2x —
# wall clock jitters even same-machine), and it only means anything when the
# baseline was emitted on this machine; CI runs
# `make bench-gate TIME_TOLERANCE=0` to disable it (different hardware).
TIME_TOLERANCE ?= 1.0
bench-gate:
	@tmp=$$(mktemp); \
	$(GO) run ./cmd/benchgate -emit $$tmp -quiet && \
	$(GO) run ./cmd/benchgate -baseline BENCH_PR21.json -candidate $$tmp -time-tolerance $(TIME_TOLERANCE); \
	status=$$?; rm -f $$tmp; exit $$status

# Zero-tolerance parallel determinism gate on the benchmark set: every gated
# point runs once sequentially and once on the sharded kernel with 4 threads,
# and any difference in a simulated metric (reply rate, p99, err%) fails.
# This is the benchmark-level counterpart of `make determinism`'s figure-level
# byte diffs.
bench-crosscheck:
	$(GO) run ./cmd/benchgate -crosscheck 4

# Byte-identity check for a change that must not move a figure: build
# cmd/benchfig at git revision BASE and in the working tree, run figures
# 4..43 at 600 connections, the default sweep and -ablation on both, and name
# the first differing table of each run that differs; then run every
# examples/* program at both revisions and name each whose stdout differs.
# Not part of `ci`: it
# needs the repository history. Usage: make figures-diff BASE=<rev>
figures-diff:
	@test -n "$(BASE)" || { echo "usage: make figures-diff BASE=<rev>"; exit 2; }
	GO=$(GO) scripts/figures-diff.sh $(BASE)

# Profile the hot paths: regenerate a representative figure under the CPU,
# heap, mutex-contention and blocking profilers — on the sharded parallel
# kernel, so shard-barrier and ring contention is visible in the mutex/block
# profiles — and leave the pprof files (plus the figure output) in
# $(PROFILE_OUT). Inspect with `go tool pprof $(PROFILE_OUT)/cpu.pprof` (or
# mutex.pprof / block.pprof for synchronization cost).
# CI runs this after a bench-gate failure and uploads the directory, so a
# regression report always ships with the evidence needed to chase it.
PROFILE_OUT ?= profile-out
PROFILE_THREADS ?= 2
profile:
	@rm -rf $(PROFILE_OUT) && mkdir -p $(PROFILE_OUT)
	$(GO) run ./cmd/benchfig -fig 16 -connections 2000 -threads $(PROFILE_THREADS) -quiet \
		-cpuprofile $(PROFILE_OUT)/cpu.pprof -memprofile $(PROFILE_OUT)/mem.pprof \
		-mutexprofile $(PROFILE_OUT)/mutex.pprof -blockprofile $(PROFILE_OUT)/block.pprof \
		> $(PROFILE_OUT)/fig16.txt
	@echo "profiles written to $(PROFILE_OUT)/ (cpu.pprof, mem.pprof, mutex.pprof, block.pprof)"

ci: fmt-check vet staticcheck govulncheck build test bench-test bench-smoke ablation-smoke determinism
