package remote

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mpsram/internal/core"
	"mpsram/internal/mc"
)

// BenchmarkRemoteShardRoundtrip measures one full dispatch: request
// encode, worker-side key validation + execution, artifact streaming and
// coordinator-side validation + landing. The workload is a small
// analytic shard, so the number approximates the fabric's overhead
// floor per shard rather than Monte-Carlo compute.
func BenchmarkRemoteShardRoundtrip(b *testing.B) {
	w := NewWorker(1, 1)
	ctx := context.Background()
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+ShardsPath, func(rw http.ResponseWriter, req *http.Request) {
		w.ServeShard(ctx, rw, req)
	})
	mux.HandleFunc("GET /v1/healthz", func(rw http.ResponseWriter, req *http.Request) {
		fmt.Fprintf(rw, `{"status":"ok","engine":%q}`, core.EngineVersion)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	p := NewPool([]string{ts.URL}, PoolConfig{HealthEvery: time.Hour})
	p.Healthz(ctx)

	spec, err := (core.RunSpec{Workload: "fig5", Samples: 200}).Normalize()
	if err != nil {
		b.Fatal(err)
	}
	shard := mc.ShardSpec{Index: 0, Count: 1}
	path := filepath.Join(b.TempDir(), "bench.shard")

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		os.Remove(path) // force a fresh dispatch, not the short-circuit
		if err := p.ExecuteShard(ctx, spec, shard, path, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := p.Stats().Dispatched.Load(); n != int64(b.N) {
		b.Fatalf("dispatched %d of %d", n, b.N)
	}
}
