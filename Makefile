# Local one-shots mirroring the CI gates. `make lint` is the pre-push
# check: formatting, go vet, and the benchmark module's vet and tests.

GO ?= go

.PHONY: lint fmt vet bench-check bench-dense bench-sparse bench-lib test test-race

lint: fmt vet bench-check

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The standing benchmark is its own module (benchmark/go.mod), so
# ./... from the root never compiles it. A change to a signature that
# benchmark/layers.go calls shows up here, not in tier-1.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The per-layer budget of the output-bound workload (lineage concat,
# render and probability, the wire encoder, socket writes), one traced
# run of the standing benchmark; the JSON line comes last. Its
# server.encode_* layers still time the harness's own reflection loop
# at 256-row batches, not the handler's encoder.
bench-dense:
	bash benchmark/run.sh --workload dense-stream --seed 1 --seconds 10 --trace 1

# The per-layer budget of the workload the engine's sharding is judged
# on (plan/drain/alloc per operation, shard count, HTTP residual), one
# traced run of the standing benchmark; the JSON line comes last.
bench-sparse:
	bash benchmark/run.sh --workload sparse-stream --seed 1 --seconds 10 --trace 1

# The per-layer budget of the paper's own metric through the
# materializing public API. The harness's engine.drain pulls blocks and
# drops them, so engine.alloc_bytes_per_op excludes the materializing
# drain: go test -run '^$$' -bench BenchmarkEvalLibShape -benchmem .
# (B/op) is the instrument for that.
bench-lib:
	bash benchmark/run.sh --workload lib-setops --seed 1 --seconds 10 --trace 1

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...
