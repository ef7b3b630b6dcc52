# One entry point for humans and CI (.github/workflows/ci.yml calls these
# same targets).

GO ?= go

# Coverage ratchet: CI fails if total -short coverage drops below this.
# Raise it when coverage grows; never lower it without a written reason.
COVER_MIN ?= 80.5

.PHONY: all build test test-race bench bench-smoke fuzz-smoke cover cover-check lint run-examples unlinked fused-ops parent-cmp fmt clean

all: build lint test

build:
	$(GO) build ./...

# Fast feedback: skips the long SPICE sweeps (testing.Short gates).
test:
	$(GO) test -short ./...

# The CI gate: full suite under the race detector.
test-race:
	$(GO) test -race ./...

# Full benchmark harness — regenerates every paper table and figure.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# CI smoke: every benchmark once, just to prove the harness still runs.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Fuzz smoke: ten seconds per target. FuzzCompiledLU proves the
# symbolic-once sparse LU (sparse.Analyze + Symbolic.Solve, scheduled by
# dependency level) bit-identical to sparse.Solver.Solve, errors included,
# on random diagonally dominant systems with stored zeros, zero
# multipliers and zero pivots, on ladders with random couplings and on
# the bit-line column's shape (two interleaved ladders, a ground rail and
# a dense border); FuzzNetlistReset proves
# spice.Engine.Reset stays bit-identical to a fresh engine under random
# netlist mutations that bounce between two topologies; FuzzP2Quantile checks the P² sketch
# (and its deterministic Merge) against exact quantiles on random streams;
# FuzzControlVariate checks the paired-moment accumulator (β̂, ρ̂, residual
# variance and its split-anywhere Merge) against exact two-pass statistics.
# The three *Codec targets gate the shard-artifact serialization surface:
# encode→decode→Merge must stay bit-identical to merging the live
# accumulators, on random streams split at random points. The two decoders
# of untrusted bytes never panic, allocate at most 64 bytes per input
# byte plus 16 KiB and round-trip what they accept: FuzzShardArtifact (a
# shard file or shipped artifact through core.DecodeShardArtifact +
# Verify) and FuzzReadFrame (the remote fabric's response-stream frames). FuzzVarRatios proves the fixed-size
# litho windows and the per-stream extract.RatioModel bit-identical
# (Float64bits of every ratio, error text included) to a test-file copy
# of the slice-based realizers and two-window VarRatios they replaced, on
# random samples that collapse or merge wires and thin the metal away.
# It covers the model's thickness-only terms on both branches: computed
# once per stream (zero thickness delta, negative zero included) and
# recomputed by a window that carries a delta. FuzzCouplingPow proves
# extraction's fixed-exponent spacing power bit-identical to
# math.Pow(x, -1.34) for any float64 bit pattern (zeros, subnormals,
# infinities, NaNs and negative x included). FuzzSummarizeSort proves
# stats.Summarize's in-place radix sort, and the Summary it computes,
# bit-identical to sort.Float64s and the arithmetic after it, on arrays
# of up to 5 000 values with ties, both signs of zero, infinities,
# subnormals and NaNs of different payloads.
# FuzzLegacySource proves the engine's lazily seeded legacy PRNG
# (internal/mc/legacy.go) draws rand.NewSource's stream bit for bit, for
# any seed and stream length. FuzzRunRequest feeds arbitrary bytes to
# serve's POST /v1/runs decoding, Normalize and Key: no panic, the
# decoding within the same allocation bound, an accepted spec normalizes
# to itself under one key, and no accepted spec carries an out-of-range
# n, ol, thk or sizes. FuzzTableEncoders feeds arbitrary strings
# (titles, column names, cells) and numbers to the report encoders and
# requires the CSV, Markdown and JSON bytes of a test-file copy of the
# per-cell fmt encoders they replaced.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzCompiledLU' -fuzztime 10s ./internal/sparse
	$(GO) test -run '^$$' -fuzz 'FuzzNetlistReset' -fuzztime 10s ./internal/spice
	$(GO) test -run '^$$' -fuzz 'FuzzP2Quantile' -fuzztime 10s ./internal/stats
	$(GO) test -run '^$$' -fuzz 'FuzzControlVariate$$' -fuzztime 10s ./internal/stats
	$(GO) test -run '^$$' -fuzz 'FuzzWelfordCodec' -fuzztime 10s ./internal/stats
	$(GO) test -run '^$$' -fuzz 'FuzzP2Codec' -fuzztime 10s ./internal/stats
	$(GO) test -run '^$$' -fuzz 'FuzzControlVariateCodec' -fuzztime 10s ./internal/stats
	$(GO) test -run '^$$' -fuzz 'FuzzSummarizeSort' -fuzztime 10s ./internal/stats
	$(GO) test -run '^$$' -fuzz 'FuzzShardArtifact' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzReadFrame' -fuzztime 10s ./internal/remote
	$(GO) test -run '^$$' -fuzz 'FuzzVarRatios' -fuzztime 10s ./internal/extract
	$(GO) test -run '^$$' -fuzz 'FuzzCouplingPow' -fuzztime 10s ./internal/extract
	$(GO) test -run '^$$' -fuzz 'FuzzLegacySource' -fuzztime 10s ./internal/mc
	$(GO) test -run '^$$' -fuzz 'FuzzRunRequest' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz 'FuzzTableEncoders' -fuzztime 10s ./internal/report

# Coverage over the -short suite (the fast deterministic core).
cover:
	$(GO) test -short -coverprofile=coverage.out ./...

# Ratcheted gate: fail when total coverage drops below COVER_MIN.
cover-check: cover
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "total coverage: $$total% (minimum $(COVER_MIN)%)"; \
	awk -v t=$$total -v m=$(COVER_MIN) 'BEGIN { exit (t+0 < m+0) ? 1 : 0 }' || \
		{ echo "coverage ratchet failed: $$total% < $(COVER_MIN)%"; exit 1; }

lint:
	$(GO) vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi

# Run every example once, output discarded; fails on the first that exits
# non-zero, so an example whose library calls start failing (log.Fatal)
# fails CI, not only one that stops compiling.
run-examples:
	@set -e; for d in examples/*/; do \
		echo "run-examples: $$d"; $(GO) run ./$$d > /dev/null; \
	done

# Unreachable-code gate: build every product binary (mpvar, each example
# and bench's mpbench) without inlining, which would hide live callees,
# list the mpsram/internal text symbols they link (go tool nm; a generic
# function's instantiations, take[go.shape.float64] and the like, count
# under its declared name), and
# compare the functions declared in non-test files under internal/ that
# none of them links with tools/unlinked/keep.txt: test oracles,
# accessors tests read results through, API kept by design and the
# deletion candidates not yet removed. Fails on any difference in either
# direction, so new dead code and a listed entry that became linked or
# was deleted both need a keep-list edit.
unlinked:
	@set -e; export LC_ALL=C; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; mkdir "$$tmp/bin"; \
	$(GO) build -gcflags=all=-l -o "$$tmp/bin/mpvar" ./cmd/mpvar; \
	for d in examples/*/; do \
		$(GO) build -gcflags=all=-l -o "$$tmp/bin/example-$$(basename $$d)" ./$$d; \
	done; \
	$(GO) -C bench build -gcflags=all=-l -o "$$tmp/bin/mpbench" .; \
	for b in "$$tmp"/bin/*; do $(GO) tool nm "$$b"; done | \
		awk '$$2 == "T" && $$3 ~ /^mpsram\/internal\// { sub(/\[.*/, "", $$3); print $$3 }' | sort -u > "$$tmp/linked"; \
	$(GO) run tools/unlinked/funcdecls.go mpsram internal > "$$tmp/declared"; \
	comm -23 "$$tmp/declared" "$$tmp/linked" > "$$tmp/unlinked"; \
	sed '/^#/d; /^$$/d' tools/unlinked/keep.txt | sort > "$$tmp/keep"; \
	if ! diff -u "$$tmp/keep" "$$tmp/unlinked"; then \
		echo "unlinked: the functions no product binary links differ from tools/unlinked/keep.txt (+ unlinked, - kept)"; \
		exit 1; \
	fi; \
	echo "unlinked: $$(wc -l < "$$tmp/unlinked") functions no product binary links, all on the keep list"

# Fused multiply-adds: the arm64 compiler fuses x*y ± z into one
# rounding where amd64 computes two, so a contractible expression in the
# engine gives other bits on an arm64 host. Cross-build ./cmd/mpvar and
# the test binaries of mpsram/internal/{sparse,spice,device,sram,tech,
# extract,stats,exp} for GOARCH=arm64, so code that only tests link (the
# sparse.Solver oracle, sram.LadderTotals) is checked too, disassemble
# those packages' symbols with go tool objdump and fail on any
# FMADD/FMSUB/FNMADD/FNMSUB outside _test.go files. A symbol whose own
# file, on its TEXT line, is a _test.go is skipped whole: non-test code
# inlined into a test oracle (geom.go inside extract's oracleEUV) is the
# oracle's arithmetic. Otherwise an inlined callee counts under the file
# it came from, e.g. tech.go inside sram's read window. Write such an
# expression as float64(x*y) ± z: the Go spec rounds an explicit
# conversion, which keeps it unfused.
fused-ops:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	GOARCH=arm64 $(GO) build -o "$$tmp/mpvar" ./cmd/mpvar; \
	for p in sparse spice device sram tech extract stats exp; do \
		GOARCH=arm64 $(GO) test -c -o "$$tmp/$$p.test" ./internal/$$p; \
	done; \
	for b in "$$tmp"/mpvar "$$tmp"/*.test; do \
		$(GO) tool objdump -s '^mpsram/internal/(sparse|spice|device|sram|tech|extract|stats|exp)\.' "$$b" >> "$$tmp/asm"; \
	done; \
	for p in sparse spice device sram tech extract stats exp; do \
		grep -q "^TEXT mpsram/internal/$$p\." "$$tmp/asm" || { echo "fused-ops: no $$p symbols disassembled"; exit 1; }; \
	done; \
	awk '$$1 == "TEXT" { own = $$3 !~ /_test\.go$$/; next } own && $$1 !~ /_test\.go:/ && $$4 ~ /^FN?M(ADD|SUB)/' "$$tmp/asm" > "$$tmp/fused"; \
	if [ -s "$$tmp/fused" ]; then \
		cat "$$tmp/fused"; \
		echo "fused-ops: $$(wc -l < "$$tmp/fused") fused multiply-adds in sparse, spice, device, sram, tech, extract, stats and exp; write x*y ± z as float64(x*y) ± z"; \
		exit 1; \
	fi; \
	echo "fused-ops: no fused multiply-add in sparse, spice, device, sram, tech, extract, stats or exp on arm64"

# Byte identity against another revision: build ./cmd/mpvar at BASE (a
# git archive export in a temporary directory, removed on exit) and from
# the working tree, run every -list workload at -smoke in each format
# (json, csv, md and the default text), both
# bench pins, a few full-budget bodies and twelve shard artifacts (both
# shards of fig5 at 50 000 draws, of table4, of table4xp and nodes at
# 600 draws, and of mcspicex -sizes 8,16 and mcspicenodes -n 8 at 4
# draws, written to the file its -o names in each side's own working
# directory), and cmp each pair of outputs and artifacts. Both binaries
# then reduce BASE's six shard sets (../b/ from either side), and the
# reduced bodies are cmp'd too, so artifacts a server of the BASE build
# left behind must reduce to the same bytes here. Every multi-stream
# family is sharded because a stream header names no option, process or
# estimator: a reduce matches streams to records by call order alone, so
# a change in that order moves only the artifacts and their reduce. The goldens print six significant digits, so only
# this sees a one-ulp drift. Names every command whose output, artifact
# or exit status differs (or that fails) and exits 1 on any. For a JSON
# body the message ends with tools/numdiff's line: the first path where
# the structure or a string moved, or else the largest relative
# difference of any number and its path (about 1e-16 for one ulp). CI runs it
# on every pull request against the base commit (job parent-cmp); a
# change that moves result bytes on purpose says so rather than
# weakening a gate.
BASE ?= HEAD
parent-cmp:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; mkdir "$$tmp/base"; \
	git archive "$(BASE)" | tar -x -C "$$tmp/base"; \
	$(GO) -C "$$tmp/base" build -o "$$tmp/mpvar-base" ./cmd/mpvar; \
	$(GO) build -o "$$tmp/mpvar-head" ./cmd/mpvar; \
	$(GO) build -o "$$tmp/numdiff" tools/numdiff/numdiff.go; \
	{ for w in $$("$$tmp/mpvar-head" -list); do \
		echo "-smoke -format json $$w"; echo "-smoke -format csv $$w"; \
		echo "-smoke -format md $$w"; echo "-smoke $$w"; \
	  done; \
	  echo "-samples 50000 -seed 2015 -format json fig5"; \
	  echo "-samples 8 -seed 2015 -n 64 -format json mcspice"; \
	  echo "-samples 100000 -format json table4x"; \
	  echo "-thk 2 -format json ext"; \
	  echo "-smoke -format json mcspice -cv"; \
	  echo "-smoke -format json mcspice -adaptive"; \
	  echo "-smoke -format json mcspicex -cv"; \
	  echo "shard -index 0 -of 2 -samples 50000 -o fig5.0 fig5"; \
	  echo "shard -index 1 -of 2 -samples 50000 -o fig5.1 fig5"; \
	  echo "shard -index 0 -of 2 -o table4.0 table4"; \
	  echo "shard -index 1 -of 2 -o table4.1 table4"; \
	  echo "reduce -format json ../b/fig5.0 ../b/fig5.1"; \
	  echo "reduce -format json ../b/table4.0 ../b/table4.1"; \
	  echo "shard -index 0 -of 2 -samples 4 -o mcspicex.0 mcspicex -sizes 8,16"; \
	  echo "shard -index 1 -of 2 -samples 4 -o mcspicex.1 mcspicex -sizes 8,16"; \
	  echo "reduce -format json ../b/mcspicex.0 ../b/mcspicex.1"; \
	  echo "shard -index 0 -of 2 -samples 4 -o mcspicenodes.0 mcspicenodes -n 8"; \
	  echo "shard -index 1 -of 2 -samples 4 -o mcspicenodes.1 mcspicenodes -n 8"; \
	  echo "reduce -format json ../b/mcspicenodes.0 ../b/mcspicenodes.1"; \
	  echo "shard -index 0 -of 2 -samples 600 -o table4xp.0 table4xp"; \
	  echo "shard -index 1 -of 2 -samples 600 -o table4xp.1 table4xp"; \
	  echo "reduce -format json ../b/table4xp.0 ../b/table4xp.1"; \
	  echo "shard -index 0 -of 2 -samples 600 -o nodes.0 nodes"; \
	  echo "shard -index 1 -of 2 -samples 600 -o nodes.1 nodes"; \
	  echo "reduce -format json ../b/nodes.0 ../b/nodes.1"; } > "$$tmp/cmds"; \
	n=0; bad=0; mkdir "$$tmp/b" "$$tmp/h"; \
	while read -r args; do \
		n=$$((n+1)); eb=0; eh=0; art=; \
		case "$$args" in *"-o "*) art=$${args#*-o }; art=$${art%% *};; esac; \
		(cd "$$tmp/b" && "$$tmp/mpvar-base" $$args < /dev/null > out 2> /dev/null) || eb=$$?; \
		(cd "$$tmp/h" && "$$tmp/mpvar-head" $$args < /dev/null > out 2> /dev/null) || eh=$$?; \
		if [ $$eb -ne 0 ] || [ $$eh -ne 0 ] || ! cmp -s "$$tmp/b/out" "$$tmp/h/out" || \
			{ [ -n "$$art" ] && ! cmp -s "$$tmp/b/$$art" "$$tmp/h/$$art"; }; then \
			msg="parent-cmp: mpvar $$args: differs (exit $$eb at $(BASE), $$eh here)"; \
			case "$$args" in *"-format json"*) msg="$$msg; $$("$$tmp/numdiff" "$$tmp/b/out" "$$tmp/h/out" 2>&1 || true)";; esac; \
			echo "$$msg"; bad=$$((bad+1)); \
		fi; \
	done < "$$tmp/cmds"; \
	if [ $$bad -ne 0 ]; then echo "parent-cmp: $$bad of $$n commands differ from $(BASE)"; exit 1; fi; \
	echo "parent-cmp: all $$n command outputs and artifacts cmp equal to $(BASE)"

fmt:
	gofmt -w .

clean:
	$(GO) clean ./...
