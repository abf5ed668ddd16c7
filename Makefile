GO ?= go

# Pinned analysis-tool versions: CI installs exactly these; locally the
# targets run whatever is on PATH and skip (with the install hint) when the
# tool is absent, so `make ci` works on an offline machine.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

# Directory the determinism target writes its benchfig build and its
# -threads outputs into; CI uploads it as a workflow artifact when a diff
# fails.
DETERMINISM_OUT ?= determinism-out

.PHONY: all fmt-check vet build test bench-test test-race staticcheck \
	govulncheck bench-smoke determinism bench-crosscheck profile ci

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
# poll in the overload figure, the slow-loris workload, the gated scale
# points at their own 10000 and 100000 connections, and the gated push point
# at its 100000 held members — exercising the benchmark plumbing end to end
# without the full sweep. The second line runs the accept-and-parse
# micro-benchmarks: a parse the request-head memo cannot serve, descriptor
# install/close churn beside 251 held descriptors, and one descriptor lookup
# in a table of 251 and of 300,000 held descriptors.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Figure/fig0[45]/|Figure/fig15/|Point/ext-compio-load501|Figure/keepalive/|Point/ext-sendfile|Figure/fig19/normal_poll/rate=(700|1300)$$|Figure/fig22/(normal_poll|devpoll)/rate=1000$$|Point/scale-10000-(poll|epoll)-rate|Point/scale-100000-epoll-rate|Point/push-100k-idle-epoll-rate1000' -benchtime 1x -figconns 800 .
	$(GO) test -run '^$$' -bench 'ParseMiss|InstallClose|GetFD' -benchtime 100x ./internal/httpsim ./internal/simkernel

# The simulation promises byte-identical output for any kernel thread count.
# TestFigureGoldens already compares every sequential run with committed
# bytes; this target re-runs a rate figure (fig 12), a flash-crowd figure with
# percentiles (fig 20), a pipelining figure (fig 33), a server-push figure
# (fig 37), a chaos figure at its own size (fig 41: seeded fault injection is
# part of the promise, and at 600 connections its fault axis is flat) and
# every ablation on the sharded parallel kernel at -threads 2 and 8, and fig
# 18 at -threads 2 (its round-robin sharding and handoff curves must fall
# back to the sequential engine unchanged). Each output is diffed against the
# golden of the same invocation in $(GOLDENS). Any map iteration, wall-clock
# dependency or cross-shard ordering leak in the event machinery fails this
# before it can corrupt a figure. Outputs stay in $(DETERMINISM_OUT) so CI can
# attach them to the failed workflow run.
GOLDENS = internal/experiments/testdata/figures
determinism:
	@rm -rf $(DETERMINISM_OUT) && mkdir -p $(DETERMINISM_OUT)
	$(GO) build -o $(DETERMINISM_OUT)/benchfig ./cmd/benchfig
	@set -e; out=$(DETERMINISM_OUT); \
	run() { golden=$$1; threads=$$2; shift 2; \
		echo "benchfig $$* -threads $$threads -percentiles -quiet"; \
		$$out/benchfig "$$@" -threads $$threads -percentiles -quiet > $$out/$$golden-t$$threads.txt; \
		diff $(GOLDENS)/$$golden.golden $$out/$$golden-t$$threads.txt; }; \
	for t in 2 8; do \
		run fig12-600 $$t -fig 12 -connections 600; \
		run fig20-600 $$t -fig 20 -connections 600; \
		run fig33-600 $$t -fig 33 -connections 600; \
		run fig37-2000 $$t -fig 37 -connections 2000; \
		run fig41 $$t -fig 41; \
		for a in $$($$out/benchfig -list | awk '$$1 !~ /^fig/ {print $$1}'); do \
			run $$a $$t -fig $$a; \
		done; \
	done; \
	run fig18-2000 2 -fig 18 -connections 2000; \
	echo "determinism: OK (-threads 2/8 equal the goldens)"

# Zero-tolerance parallel determinism check on the gated points: every point
# runs on the sharded kernel with 4 threads, and any difference in a simulated
# metric (reply rate, p99, err%) from its sequential pin in
# internal/experiments/testdata/benchpoints.golden fails. This is the
# benchmark-level counterpart of `make determinism`'s figure-level byte diffs.
bench-crosscheck:
	$(GO) test -run '^$$' -bench PointThreads4 -benchtime 1x ./internal/experiments

# Profile the hot paths: regenerate a representative figure under the CPU,
# heap, mutex-contention and blocking profilers — on the sharded parallel
# kernel, so shard-barrier and ring contention is visible in the mutex/block
# profiles — and leave the pprof files (plus the figure output) in
# $(PROFILE_OUT). Inspect with `go tool pprof $(PROFILE_OUT)/cpu.pprof` (or
# mutex.pprof / block.pprof for synchronization cost).
# CI runs this after a failed `make ci` and uploads the directory, so a
# failure report ships with the evidence needed to chase it.
PROFILE_OUT ?= profile-out
PROFILE_THREADS ?= 2
profile:
	@rm -rf $(PROFILE_OUT) && mkdir -p $(PROFILE_OUT)
	$(GO) run ./cmd/benchfig -fig 16 -connections 2000 -threads $(PROFILE_THREADS) -quiet \
		-cpuprofile $(PROFILE_OUT)/cpu.pprof -memprofile $(PROFILE_OUT)/mem.pprof \
		-mutexprofile $(PROFILE_OUT)/mutex.pprof -blockprofile $(PROFILE_OUT)/block.pprof \
		> $(PROFILE_OUT)/fig16.txt
	@echo "profiles written to $(PROFILE_OUT)/ (cpu.pprof, mem.pprof, mutex.pprof, block.pprof)"

ci: fmt-check vet staticcheck govulncheck build test bench-test bench-smoke determinism \
	bench-crosscheck
