# Tier-1 verification: everything a PR must keep green.
.PHONY: verify build test vet lint race check-tests bench kernel-bench profile golden golden-write bench-json bench-compare fuzz-smoke fmt-check

verify: vet build test check-tests

vet:
	go vet ./...

# Static analysis: go vet plus staticcheck. CI installs staticcheck pinned
# (see .github/workflows/ci.yml); locally the staticcheck half is skipped
# with a note when the binary isn't on PATH, so `make lint` never requires
# a network fetch.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; ran go vet only (CI pins staticcheck 2024.1.1)"; \
	fi

build:
	go build ./...

test:
	go test ./...

# Concurrency-sensitive packages under the race detector (includes the
# experiment harness's worker pool, the chaos kill-schedule scenarios and
# the workload generator's pooled sources).
race:
	go test -race ./internal/metrics ./internal/sim ./internal/qos ./internal/gateway ./internal/fpindex ./internal/hitset ./internal/tiering ./internal/rados ./internal/core ./internal/chaos ./internal/harness ./internal/experiments ./internal/workload

# Every internal package must ship tests.
check-tests:
	sh scripts/check-tests.sh

bench:
	go test -bench=. -benchmem

# Kernel hot-path microbenchmarks: the DES engine, the metrics/trace
# primitives every simulated I/O passes through, and the workload content
# generator every written block comes from. CI runs these so dispatch cost,
# generator cost and allocs/op regressions show up in review.
kernel-bench:
	go test -run NONE -bench=. -benchmem ./internal/sim ./internal/metrics ./internal/workload

# CPU + heap profile of the golden sweep — the kernel's real workload.
# Inspect with `go tool pprof profiles/sweep.cpu.pprof`.
profile:
	mkdir -p profiles
	go run ./cmd/dedupbench -scale 0.25 -results '' -cpuprofile profiles/sweep.cpu.pprof -memprofile profiles/sweep.mem.pprof all

# Fail if any file needs gofmt (same check CI runs).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Golden regression gate: re-run the sweep at the snapshot scale and fail
# with a per-cell diff on any drift. CI runs exactly this target.
golden:
	go run ./cmd/dedupbench -scale 0.25 -results '' -golden check all

# Regenerate the snapshots after an intentional, reviewed number shift.
golden-write:
	go run ./cmd/dedupbench -scale 0.25 -results '' -golden write all

# Machine-readable sweep: canonical JSON per experiment plus a wall-clock
# summary; CI uploads results/ as an artifact.
bench-json:
	go run ./cmd/dedupbench -scale 0.25 -results results -timing results/BENCH_pr.json all

# Wall-clock regression gate: PR sweep total vs the checked-in baseline
# (results/BENCH_baseline.json — committed with `git add -f`, results/ is
# otherwise gitignored). >25% slower fails, 10-25% warns. The script's
# --selftest exercises the thresholds themselves.
bench-compare:
	sh scripts/bench-compare.sh --selftest
	sh scripts/bench-compare.sh results/BENCH_baseline.json results/BENCH_pr.json

# Fuzz smoke: 30s per fuzz target over the parsers that guard on-disk and
# operator input (ref keys, chunk maps, SLO specs) and the content
# generator's byte stream against math/rand. Regression corpora run in
# `make test`; this step searches for new inputs.
fuzz-smoke:
	go test -run NONE -fuzz FuzzRefKeyRoundTrip -fuzztime 30s ./internal/core
	go test -run NONE -fuzz FuzzChunkMapRoundTrip -fuzztime 30s ./internal/core
	go test -run NONE -fuzz FuzzParseSLO -fuzztime 30s ./internal/gateway
	go test -run NONE -fuzz FuzzFillRandom -fuzztime 30s ./internal/workload
