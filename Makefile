GO ?= go
TWVET = /tmp/twvet-bin

.PHONY: build test twvet vet verify verify-race verify-telemetry verify-fastpath verify-compiled verify-gang verify-checkpoint verify-resultcache verify-intervals bench bench-json clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## twvet: run the repo's custom analyzers (internal/analysis, cmd/twvet)
## over every package through the real `go vet -vettool` protocol. The
## passes mechanize the simulation invariants: deterministic iteration in
## result packages, nil-guarded telemetry on hot paths, balanced
## trap/breakpoint/claim pairing, digest completeness, lock discipline,
## and Options.Validate at experiment boundaries. See DESIGN.md §9 and
## §14 for the invariant catalog and the modular-facts model.
##
## Two invocations on purpose — the cached-vetx smoke: the first run
## computes and caches a .vetx fact file per internal package; the
## second analyzes the remaining roots (the facade, cmd/, examples/)
## against those cached fact files, so a vetx encode/decode regression
## fails on a warm cache too, not just a cold one.
twvet:
	$(GO) build -o $(TWVET) ./cmd/twvet
	$(GO) vet -vettool=$(TWVET) ./internal/...
	$(GO) vet -vettool=$(TWVET) ./...

## vet: stock go vet plus the twvet suite.
vet: twvet
	$(GO) vet ./...

## verify: the tier-1 gate (see ROADMAP.md): build, stock vet, the twvet
## invariant suite, the full test run, and the checkpoint and
## result-cache byte-identity gates.
verify: build vet test verify-checkpoint verify-resultcache

## verify-race: tier-1 plus the race detector. The run scheduler fans
## independent simulations across goroutines; this target is the
## concurrency gate for any change touching internal/sched or the
## experiment harness. The experiment package's byte-identity matrices
## run long under -race, so the default 10m per-package timeout is
## raised rather than trimming coverage.
verify-race: vet
	$(GO) test -race -timeout 30m ./...

## verify-telemetry: render Figure 2 with and without telemetry and diff
## the tables — the zero-observable-effect gate for the telemetry layer.
## Timing lines ("completed in") are nondeterministic and filtered out.
verify-telemetry:
	$(GO) build -o /tmp/twbench-vt ./cmd/twbench
	/tmp/twbench-vt -run figure2 -scale 4000 -trials 2 -q > /tmp/vt-off.txt
	/tmp/twbench-vt -run figure2 -scale 4000 -trials 2 -q \
		-metrics /tmp/vt-metrics.json -trace /tmp/vt-trace.jsonl > /tmp/vt-on.txt
	grep -v 'completed in' /tmp/vt-off.txt > /tmp/vt-off.flt
	grep -v 'completed in' /tmp/vt-on.txt > /tmp/vt-on.flt
	diff /tmp/vt-off.flt /tmp/vt-on.flt
	@echo "verify-telemetry: tables byte-identical with telemetry on/off"

## verify-fastpath: render Figure 2 with the batched hit fast path on and
## off, serial and parallel, with and without telemetry, and diff every
## table — the byte-identity gate for the execution fast path. Timing
## lines ("completed in") are nondeterministic and filtered out.
verify-fastpath:
	$(GO) build -o /tmp/twbench-vf ./cmd/twbench
	/tmp/twbench-vf -run figure2 -scale 4000 -trials 2 -q -parallel 1 \
		> /tmp/vf-fast-p1.txt
	/tmp/twbench-vf -run figure2 -scale 4000 -trials 2 -q -parallel 1 \
		-fastpath=false > /tmp/vf-slow-p1.txt
	/tmp/twbench-vf -run figure2 -scale 4000 -trials 2 -q -parallel 8 \
		-fastpath=false > /tmp/vf-slow-p8.txt
	/tmp/twbench-vf -run figure2 -scale 4000 -trials 2 -q -parallel 8 \
		-metrics /tmp/vf-metrics-fast.json > /tmp/vf-fast-p8t.txt
	/tmp/twbench-vf -run figure2 -scale 4000 -trials 2 -q -parallel 8 \
		-fastpath=false -metrics /tmp/vf-metrics-slow.json > /tmp/vf-slow-p8t.txt
	grep -v 'completed in' /tmp/vf-fast-p1.txt > /tmp/vf-ref.flt
	for f in vf-slow-p1 vf-slow-p8 vf-fast-p8t vf-slow-p8t; do \
		grep -v 'completed in' /tmp/$$f.txt > /tmp/$$f.flt && \
		diff /tmp/vf-ref.flt /tmp/$$f.flt || exit 1; done
	grep -v 'wall_seconds' /tmp/vf-metrics-fast.json > /tmp/vf-metrics-fast.flt
	grep -v 'wall_seconds' /tmp/vf-metrics-slow.json > /tmp/vf-metrics-slow.flt
	diff /tmp/vf-metrics-fast.flt /tmp/vf-metrics-slow.flt
	@echo "verify-fastpath: tables and metrics byte-identical, fast path on/off"

## verify-compiled: render Figure 2 with the compiled (or decode-ahead)
## workload replay and with the reference interpreter (-compile=false),
## serial and parallel, and diff every table — the byte-identity gate for
## program compilation. Timing lines are filtered as above.
verify-compiled:
	$(GO) build -o /tmp/twbench-vc ./cmd/twbench
	/tmp/twbench-vc -run figure2 -scale 4000 -trials 2 -q -parallel 1 \
		> /tmp/vc-on-p1.txt
	/tmp/twbench-vc -run figure2 -scale 4000 -trials 2 -q -parallel 1 \
		-compile=false > /tmp/vc-off-p1.txt
	/tmp/twbench-vc -run figure2 -scale 4000 -trials 2 -q -parallel 8 \
		> /tmp/vc-on-p8.txt
	/tmp/twbench-vc -run figure2 -scale 4000 -trials 2 -q -parallel 8 \
		-compile=false > /tmp/vc-off-p8.txt
	grep -v 'completed in' /tmp/vc-on-p1.txt > /tmp/vc-ref.flt
	for f in vc-off-p1 vc-on-p8 vc-off-p8; do \
		grep -v 'completed in' /tmp/$$f.txt > /tmp/$$f.flt && \
		diff /tmp/vc-ref.flt /tmp/$$f.flt || exit 1; done
	@echo "verify-compiled: tables byte-identical, compiled replay on/off"

## verify-gang: render every gang-eligible experiment (the accuracy tables
## and Figure 3) ganged and solo, serial and parallel, with and without
## telemetry, and diff every table — the byte-identity gate for ganged
## multi-configuration simulation. Timing lines ("completed in") are
## nondeterministic and filtered out. Per-run metrics files are not
## diffed ganged-vs-solo: machine-level counters ride on a gang's first
## member by design, so only the rendered tables are identical.
VG_EXPS = table6,table7,table8,table9,table10,figure3
verify-gang:
	$(GO) build -o /tmp/twbench-vg ./cmd/twbench
	/tmp/twbench-vg -run $(VG_EXPS) -scale 4000 -trials 2 -q -parallel 1 \
		> /tmp/vg-gang-p1.txt
	/tmp/twbench-vg -run $(VG_EXPS) -scale 4000 -trials 2 -q -parallel 1 \
		-gang=false > /tmp/vg-solo-p1.txt
	/tmp/twbench-vg -run $(VG_EXPS) -scale 4000 -trials 2 -q -parallel 8 \
		-gang=false > /tmp/vg-solo-p8.txt
	/tmp/twbench-vg -run $(VG_EXPS) -scale 4000 -trials 2 -q -parallel 8 \
		-metrics /tmp/vg-metrics-gang.json > /tmp/vg-gang-p8t.txt
	/tmp/twbench-vg -run $(VG_EXPS) -scale 4000 -trials 2 -q -parallel 8 \
		-gang=false -metrics /tmp/vg-metrics-solo.json > /tmp/vg-solo-p8t.txt
	grep -v 'completed in' /tmp/vg-gang-p1.txt > /tmp/vg-ref.flt
	for f in vg-solo-p1 vg-solo-p8 vg-gang-p8t vg-solo-p8t; do \
		grep -v 'completed in' /tmp/$$f.txt > /tmp/$$f.flt && \
		diff /tmp/vg-ref.flt /tmp/$$f.flt || exit 1; done
	@echo "verify-gang: tables byte-identical, ganged vs solo, telemetry on/off"

## verify-checkpoint: render the gang-eligible experiments fresh-booted
## and forked from checkpointed boot images — fastpath on/off, gang
## on/off, serial and parallel, plus a persisted -checkpoint-dir reload —
## and diff every table: the byte-identity gate for checkpoint forks.
## Timing lines ("completed in") are nondeterministic and filtered out.
verify-checkpoint:
	$(GO) build -o /tmp/twbench-vk ./cmd/twbench
	rm -rf /tmp/vk-ckpt && mkdir -p /tmp/vk-ckpt
	/tmp/twbench-vk -run $(VG_EXPS) -scale 4000 -trials 2 -q -parallel 1 \
		> /tmp/vk-boot-p1.txt
	/tmp/twbench-vk -run $(VG_EXPS) -scale 4000 -trials 2 -q -parallel 1 \
		-checkpoint > /tmp/vk-fork-p1.txt
	/tmp/twbench-vk -run $(VG_EXPS) -scale 4000 -trials 2 -q -parallel 8 \
		-checkpoint > /tmp/vk-fork-p8.txt
	/tmp/twbench-vk -run $(VG_EXPS) -scale 4000 -trials 2 -q -parallel 8 \
		-checkpoint -fastpath=false > /tmp/vk-fork-p8nf.txt
	/tmp/twbench-vk -run $(VG_EXPS) -scale 4000 -trials 2 -q -parallel 8 \
		-checkpoint -gang=false > /tmp/vk-fork-p8ng.txt
	/tmp/twbench-vk -run $(VG_EXPS) -scale 4000 -trials 2 -q -parallel 8 \
		-checkpoint -checkpoint-dir /tmp/vk-ckpt > /tmp/vk-fork-dir1.txt
	/tmp/twbench-vk -run $(VG_EXPS) -scale 4000 -trials 2 -q -parallel 8 \
		-checkpoint -checkpoint-dir /tmp/vk-ckpt > /tmp/vk-fork-dir2.txt
	ls /tmp/vk-ckpt/*.ckpt > /dev/null
	grep -v 'completed in' /tmp/vk-boot-p1.txt > /tmp/vk-ref.flt
	for f in vk-fork-p1 vk-fork-p8 vk-fork-p8nf vk-fork-p8ng vk-fork-dir1 vk-fork-dir2; do \
		grep -v 'completed in' /tmp/$$f.txt > /tmp/$$f.flt && \
		diff /tmp/vk-ref.flt /tmp/$$f.flt || exit 1; done
	@echo "verify-checkpoint: tables byte-identical, boot vs checkpoint fork"

## verify-resultcache: run the twsweep design-space grid with the result
## cache off, on (cold then warm in one process), solo, serial and
## parallel, plus a persisted -result-cache-dir store written and then
## reloaded by a fresh process — and diff every table: the byte-identity
## gate for content-addressed result reuse.
verify-resultcache:
	$(GO) build -o /tmp/twsweep-vr ./cmd/twsweep
	rm -rf /tmp/vr-store && mkdir -p /tmp/vr-store
	/tmp/twsweep-vr -scale 4000 -q -parallel 1 -result-cache=false \
		> /tmp/vr-off-p1.txt
	/tmp/twsweep-vr -scale 4000 -q -parallel 1 > /tmp/vr-on-p1.txt
	/tmp/twsweep-vr -scale 4000 -q -parallel 8 > /tmp/vr-on-p8.txt
	/tmp/twsweep-vr -scale 4000 -q -parallel 8 -gang=false \
		> /tmp/vr-on-p8ng.txt
	/tmp/twsweep-vr -scale 4000 -q -parallel 8 \
		-result-cache-dir /tmp/vr-store > /tmp/vr-dir1.txt
	/tmp/twsweep-vr -scale 4000 -q -parallel 8 \
		-result-cache-dir /tmp/vr-store > /tmp/vr-dir2.txt
	ls /tmp/vr-store/result-*.rc > /dev/null
	for f in vr-on-p1 vr-on-p8 vr-on-p8ng vr-dir1 vr-dir2; do \
		diff /tmp/vr-off-p1.txt /tmp/$$f.txt || exit 1; done
	@echo "verify-resultcache: tables byte-identical, result cache on/off, memory and disk"

## verify-intervals: the two-sided gate for representative-interval
## sampling. Off side: with -phase-intervals 0 the phase machinery must
## be invisible — the twsweep design-space table is diffed byte-for-byte
## against a run that never mentions the phase flags, at -parallel 1/8 ×
## gang on/off. On side: sampling is an approximation, so it is
## error-bound-gated rather than diffed — `twbench -verify-intervals`
## reruns the pinned sweep both ways and fails unless the speedup is
## ≥ 5× with every extrapolated miss ratio within 0.02 of exact (the
## same bounds CI applies to the bench JSON's interval_sampling
## section). A deterministic twsweep spot check rides along: two
## identical sampled runs must render identical tables.
verify-intervals:
	$(GO) build -o /tmp/twbench-vi ./cmd/twbench
	$(GO) build -o /tmp/twsweep-vi ./cmd/twsweep
	/tmp/twsweep-vi -scale 4000 -q -parallel 1 > /tmp/vi-base.txt
	/tmp/twsweep-vi -scale 4000 -q -parallel 1 -phase-intervals 0 \
		> /tmp/vi-off-p1.txt
	/tmp/twsweep-vi -scale 4000 -q -parallel 8 -phase-intervals 0 \
		> /tmp/vi-off-p8.txt
	/tmp/twsweep-vi -scale 4000 -q -parallel 1 -phase-intervals 0 \
		-gang=false > /tmp/vi-off-p1ng.txt
	/tmp/twsweep-vi -scale 4000 -q -parallel 8 -phase-intervals 0 \
		-gang=false > /tmp/vi-off-p8ng.txt
	for f in vi-off-p1 vi-off-p8 vi-off-p1ng vi-off-p8ng; do \
		diff /tmp/vi-base.txt /tmp/$$f.txt || exit 1; done
	/tmp/twsweep-vi -scale 1000 -q -parallel 1 -result-cache=false \
		-phase-intervals 64 -phase-k 3 -phase-warmup 2000 > /tmp/vi-on-a.txt
	/tmp/twsweep-vi -scale 1000 -q -parallel 8 -result-cache=false \
		-phase-intervals 64 -phase-k 3 -phase-warmup 2000 > /tmp/vi-on-b.txt
	diff /tmp/vi-on-a.txt /tmp/vi-on-b.txt
	/tmp/twbench-vi -verify-intervals -q
	@echo "verify-intervals: off-path byte-identical, sampled path deterministic and within gates"

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

## bench-json: record the fast-vs-baseline perf trajectory for Figure 2 at
## the bench_test.go conditions, the ganged accuracy-sweep suite
## (figure3/table8/table9 ganged vs solo, with allocation counts), the
## gang member-count scaling curve, the per-workload hot loop, the
## boot-amortization section (boot vs checkpoint fork), the result-cache
## section (cold vs warm sweep), and the interval-sampling section
## (exhaustive vs representative-interval replay with the worst
## extrapolation error), writing BENCH_<label>.json (label defaults to
## "pr9"; override with BENCH_LABEL=...).
BENCH_LABEL ?= pr9
bench-json:
	$(GO) build -o /tmp/twbench-bj ./cmd/twbench
	/tmp/twbench-bj -bench-json $(BENCH_LABEL) -run figure2 \
		-scale 1000 -trials 4 -frames 4096

clean:
	$(GO) clean ./...
