package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mpsram/internal/mc"
)

// FuzzShardArtifact feeds arbitrary bytes — what a shard file on disk or
// a peer's artifact frame may hold — through ReadShardArtifactFrom and
// Verify: neither may panic, and any artifact the decoder accepts must
// re-encode to one that decodes to the same header. The seed is a real
// artifact, which must round-trip byte for byte.
func FuzzShardArtifact(f *testing.F) {
	// The second block of a 257-trial run holds one trial per stream: a
	// complete artifact small enough (~600 bytes) that minimizing the
	// inputs it spawns stays cheap.
	path := filepath.Join(f.TempDir(), "seed.shard")
	shard := mc.ShardSpec{Index: 1, Count: 2}
	if err := RunShard(RunSpec{Workload: "fig5", Samples: 257}, shard, path, ShardRunOptions{}); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	art, err := ReadShardArtifactFrom(bytes.NewReader(real))
	if err != nil {
		f.Fatal(err)
	}
	var again bytes.Buffer
	if err := WriteShardArtifactTo(&again, art.Header, artifactPayload(real)); err != nil {
		f.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), real) {
		f.Fatal("real artifact does not round-trip byte for byte")
	}
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add([]byte(nil))
	f.Add(append([]byte(nil), shardMagic...))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ReadShardArtifactFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		h := a.Header
		_ = a.Verify("", mc.ShardSpec{Index: h.ShardIndex, Count: h.ShardCount})
		_ = a.Verify(h.RunKey, shard)
		var buf bytes.Buffer
		if err := WriteShardArtifactTo(&buf, h, artifactPayload(data)); err != nil {
			t.Fatal(err)
		}
		back, err := ReadShardArtifactFrom(&buf)
		if err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v", err)
		}
		if !reflect.DeepEqual(back.Header, h) {
			t.Fatalf("header round trip drifted: %+v -> %+v", h, back.Header)
		}
	})
}

// artifactPayload returns the payload bytes after an artifact's magic and
// header; data must already have decoded.
func artifactPayload(data []byte) []byte {
	hlen := int(binary.BigEndian.Uint32(data[len(shardMagic):]))
	return data[len(shardMagic)+4+hlen:]
}
