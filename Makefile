GO ?= go

.PHONY: all build test race gofmt vet vet-json lint escapes bench golden fuzz-smoke clean

all: build gofmt vet lint escapes test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 30m ./...

# gofmt: the formatting gate. gofmt -l prints the files it would
# change; any output fails.
gofmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt -l lists files that need formatting:"; echo "$$out"; exit 1; \
	fi

# vet: the stock toolchain vet pass. Kept separate from lint so CI can
# report them as distinct gates.
vet:
	$(GO) vet ./...

# lint: the project-specific rmpvet multichecker, plus staticcheck when
# it is on PATH. staticcheck is optional tooling — we never install it
# here, we only use it if the environment already provides it — but
# rmpvet is a hard gate and runs everywhere the go toolchain runs.
lint:
	$(GO) run ./cmd/rmpvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (rmpvet still enforced)"; \
	fi

# vet-json: the same rmpvet pass with machine-readable output — one
# JSON object per line ({"file","line","col","analyzer","message"}).
# CI pipes this through jq to emit GitHub error annotations on the
# offending lines; editors and other tooling can consume it directly.
vet-json:
	$(GO) run ./cmd/rmpvet -json ./...

# escapes: the compiler-backed allocation gate. Compiles the tree with
# -gcflags='-m -m' and fails if any //rmpvet:hotpath function
# heap-allocates beyond the reviewed baseline in .rmpvet-escapes.
escapes:
	$(GO) run ./cmd/rmpvet -escapes ./...

# bench: regenerate the committed benchmark artifacts at the repo
# root. Each experiment writes its BENCH_*.json (stamped with the
# machine it ran on) next to the table it prints; run from the repo
# root so the artifacts land where CI and reviewers expect them. The
# gated end-to-end benchmark and its per-layer metrics (kernels, frame
# codec, conn round trips) are `bash bench/run.sh`, not this target.
bench:
	$(GO) run ./cmd/rmpbench -exp tier
	$(GO) run ./cmd/rmpbench -exp rs
	$(GO) run ./cmd/rmpbench -exp scale

# golden: rewrite both golden sets from the current code — the paper
# outputs TestPaperOutputsGolden pins (internal/experiments/testdata:
# Figs 1-5, DECOMP, and the transfer/stored columns of -exp rs and
# -exp overflow) and the apps' device-call sequences
# TestRunFaultSequenceGolden pins (internal/apps/testdata/runs.golden).
# Only for a change meant to move them; review the diff before
# committing it.
golden:
	$(GO) test ./internal/experiments -run 'TestPaperOutputsGolden$$' -count=1 -update
	$(GO) test ./internal/apps -run 'TestRunFaultSequenceGolden$$' -count=1 -update

# fuzz-smoke: a short deterministic pass over every fuzz target's seed
# corpus plus a brief mutation run, mirroring the CI fuzz step.
fuzz-smoke:
	$(GO) test ./internal/wire/ -run 'Fuzz' -fuzz FuzzDecode -fuzztime 20s
	$(GO) test ./internal/wire/ -run 'Fuzz' -fuzz FuzzRoundTrip -fuzztime 20s
	$(GO) test ./internal/wire/ -run 'Fuzz' -fuzz FuzzStreamDemux -fuzztime 20s
	$(GO) test ./internal/wire/ -run 'Fuzz' -fuzz FuzzFrameReader -fuzztime 20s
	$(GO) test ./internal/chaos/ -run 'Fuzz' -fuzz FuzzSchedule -fuzztime 20s

clean:
	$(GO) clean ./...
