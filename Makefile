# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); `make lint` is the one to run before
# pushing — it includes extravet, the repo's own invariant checkers.

GO ?= go

.PHONY: build test race lint vet fuzz bench bench-smoke crash-stress

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# extravet enforces the concurrency/determinism contracts documented in
# DESIGN.md ("Statically enforced invariants"). It needs no tools
# outside the repo and the standard distribution. The second pass loads
# the deadlockcheck build so the analyzers also see the instrumented
# lock wrappers and the sentinel itself.
lint: vet
	$(GO) run ./cmd/extravet ./...
	$(GO) run ./cmd/extravet -tags deadlockcheck ./...

vet:
	$(GO) vet ./...

# 30-second parse/print/reparse stability smoke over the EXCESS parser.
fuzz:
	$(GO) test -fuzz=FuzzParsePrintReparse -fuzztime=30s ./internal/excess/parse/

bench:
	$(GO) test -short -run '^$$' -bench 'Join|AccessMethod|RefChase|PreparedScanParallel' -benchtime=1x ./...

# The benchmark harness is its own module, so `go test ./...` at the
# root does not reach it: run its smoke test (every workload briefly,
# traced and untraced) against the engine in this checkout.
bench-smoke:
	cd enginebench && $(GO) test -short .

# Durability stress: the crash harness (kill-and-reopen rounds under the
# race detector) plus the WAL torn-tail corpus. EXTRA_CRASH_ROUNDS
# scales the number of kill cycles. The final round runs under the
# deadlockcheck build tag: the runtime lock-order sentinel panics on any
# rank inversion the workload provokes.
crash-stress:
	$(GO) test -race -count=2 ./internal/wal/ ./internal/storage/
	EXTRA_CRASH_ROUNDS=12 $(GO) test -race -count=1 -run 'TestCrashRecovery' -v .
	$(GO) test -tags deadlockcheck -count=1 ./internal/deadlock/
	EXTRA_CRASH_ROUNDS=2 $(GO) test -tags deadlockcheck -count=1 -run 'TestCrashRecovery' .
