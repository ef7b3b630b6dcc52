package remote

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"mpsram/internal/core"
	"mpsram/internal/mc"
)

// FuzzShardRequest feeds arbitrary bytes to the POST /v1/shards decoding
// (decodeShardRequest, unknown fields refused), then the checks ServeShard
// makes before it runs anything. Nothing may panic; the decoding
// allocates within its bound (decodeAllocPerByte); an accepted body is
// one JSON value (json.Valid); an accepted request's shard coordinates
// go through Validate, and its spec, once Normalize
// accepts it, is a fixed point of Normalize with one key; a non-empty
// checkpoint goes through core.DecodeShardArtifact.
func FuzzShardRequest(f *testing.F) {
	marshal := func(sr ShardRequest) []byte {
		body, err := json.Marshal(sr)
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	dispatch := func(spec core.RunSpec, shard mc.ShardSpec, checkpoint []byte) ShardRequest {
		spec, err := spec.Normalize()
		if err != nil {
			f.Fatal(err)
		}
		key, err := spec.Key()
		if err != nil {
			f.Fatal(err)
		}
		return NewShardRequest(spec, shard, key, checkpoint)
	}
	// A real checkpoint: shard 1 of 2 of a 257-trial fig5 holds one trial
	// per stream, so the seed stays under a kilobyte.
	spec := core.RunSpec{Workload: "fig5", Samples: 257}
	shard := mc.ShardSpec{Index: 1, Count: 2}
	path := filepath.Join(f.TempDir(), "seed.shard")
	if err := core.RunShard(spec, shard, path, core.ShardRunOptions{}); err != nil {
		f.Fatal(err)
	}
	ckpt, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := core.DecodeShardArtifact(ckpt); err != nil {
		f.Fatal(err)
	}
	plain := dispatch(spec, shard, nil)
	drifted := plain
	drifted.Engine = "v0"
	badShard := dispatch(spec, mc.ShardSpec{Index: 5, Count: 2}, nil)
	f.Add(marshal(plain))
	f.Add(marshal(dispatch(spec, shard, ckpt)))
	f.Add(append(bytes.TrimSuffix(marshal(plain), []byte("}")), `,"fastseed":true}`...))
	f.Add(marshal(drifted))
	f.Add(marshal(badShard))
	f.Add([]byte(`{not json`))
	f.Add(append(marshal(plain), " garbage"...))
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sr, err := decodeShardRequest(bytes.NewReader(body))
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(decodeAllocPerByte*len(body)+decodeAllocSlack); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, want at most %d", len(body), got, bound)
		}
		if err != nil {
			return
		}
		if !json.Valid(body) {
			t.Fatalf("%q accepted but is not one JSON value", body)
		}
		if s := sr.Shard(); s.Validate() == nil && (s.Count < 1 || s.Index < 0 || s.Index >= s.Count) {
			t.Fatalf("%s: shard %+v accepted", body, s)
		}
		raw := sr.Spec()
		if spec, err := raw.Normalize(); err == nil {
			key, err := raw.Key()
			if err != nil {
				t.Fatalf("%s: Normalize accepted but Key refused: %v", body, err)
			}
			again, err := spec.Normalize()
			if err != nil {
				t.Fatalf("%s: normalized spec %+v refused: %v", body, spec, err)
			}
			if !reflect.DeepEqual(again, spec) {
				t.Fatalf("%s: Normalize is not idempotent: %+v -> %+v", body, spec, again)
			}
			if k, err := spec.Key(); err != nil || k != key {
				t.Fatalf("%s: normalized spec keys to %q (%v), want %q", body, k, err, key)
			}
		}
		if len(sr.Checkpoint) > 0 {
			core.DecodeShardArtifact(sr.Checkpoint)
		}
	})
}
