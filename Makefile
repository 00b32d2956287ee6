.PHONY: all build test bench race verify

all: build

build:
	go build ./...

test:
	go test ./...

bench:
	go test -bench=. -benchmem ./internal/simnet ./...

# The packages scripts/verify.sh runs under the race detector.
race:
	go test -race ./internal/experiments ./internal/simnet ./internal/faults/... \
		./internal/metrics/... ./internal/core/... ./internal/trace/... \
		./internal/database/... ./internal/mobiledb/... ./internal/repl/... \
		./internal/workload/... ./internal/obs/... ./internal/mtcp

verify:
	./scripts/verify.sh
