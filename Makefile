GO ?= go

.PHONY: build test twvet vet verify verify-race bench clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## twvet: run the repo's custom analyzers (internal/analysis, cmd/twvet)
## over every package. The passes mechanize the simulation invariants:
## deterministic iteration in result packages, nil-guarded telemetry on
## hot paths, lock discipline, and Options.Validate at experiment
## boundaries. See DESIGN.md §9 for the invariant catalog.
twvet:
	$(GO) run ./cmd/twvet ./...

## vet: stock go vet plus the twvet suite.
vet: twvet
	$(GO) vet ./...

## verify: the tier-1 gate (see ROADMAP.md): build, stock vet, the twvet
## invariant suite and the full test run. The byte-identity gate for every
## execution path is TestDifferential in internal/experiment, which the
## test run includes.
verify: build vet test

## verify-race: tier-1 plus the race detector. The run scheduler fans
## independent simulations across goroutines; this target is the
## concurrency gate for any change touching internal/sched or the
## experiment harness. The experiment package's byte-identity matrices
## run long under -race, so the default 10m per-package timeout is
## raised rather than trimming coverage.
verify-race: vet
	$(GO) test -race -timeout 30m ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

clean:
	$(GO) clean ./...
