package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"mpsram/internal/mc"
)

// The decoder pays for what it reads: decoding n bytes allocates at most
// decodeAllocPerByte·n + decodeAllocSlack bytes. The slack covers the
// reader's buffers and the error text; the factor is set by the format,
// whose costliest byte is a collecting record that carries no values yet
// reserves room for a whole block of them (2 KiB per 41-byte Welford).
const (
	decodeAllocPerByte = 64
	decodeAllocSlack   = 16 << 10
)

// decodeAllocated returns what DecodeShardArtifact allocates on data.
func decodeAllocated(data []byte) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	DecodeShardArtifact(data)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzShardArtifact feeds arbitrary bytes — what a shard file on disk or
// a peer's artifact frame may hold — through DecodeShardArtifact and
// Verify: neither may panic, the decode must allocate within its bound
// (decodeAllocPerByte), and any artifact the decoder accepts must
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
	art, err := DecodeShardArtifact(real)
	if err != nil {
		f.Fatal(err)
	}
	again, err := encodeShardArtifact(art.Header, artifactPayload(real))
	if err != nil {
		f.Fatal(err)
	}
	if !bytes.Equal(again, real) {
		f.Fatal("real artifact does not round-trip byte for byte")
	}
	// A record claiming more values than its bytes hold: fig5's streams
	// collect one observable, so the artifact ends with its last record's
	// value count and one value; the count now claims a full block.
	values := append([]byte(nil), real...)
	binary.BigEndian.PutUint64(values[len(values)-16:], 256)
	if _, err := DecodeShardArtifact(values); err == nil || err.Error() != "stats: truncated record encoding" {
		f.Fatalf("value count past the record's bytes: %v", err)
	}
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add(values)
	f.Add([]byte(nil))
	f.Add(append([]byte(nil), shardMagic...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, bound := decodeAllocated(data), uint64(decodeAllocPerByte*len(data)+decodeAllocSlack); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, want at most %d", len(data), got, bound)
		}
		a, err := DecodeShardArtifact(data)
		if err != nil {
			return
		}
		h := a.Header
		_ = a.Verify("", mc.ShardSpec{Index: h.ShardIndex, Count: h.ShardCount})
		_ = a.Verify(h.RunKey, shard)
		buf, err := encodeShardArtifact(h, artifactPayload(data))
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeShardArtifact(buf)
		if err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v", err)
		}
		if !reflect.DeepEqual(back.Header, h) {
			t.Fatalf("header round trip drifted: %+v -> %+v", h, back.Header)
		}
	})
}

// encodeShardArtifact joins header and payload in memory, in the
// container format writeShardArtifact streams to disk and the remote
// fabric ships: the tests' reference for those bytes.
func encodeShardArtifact(h ShardHeader, payload []byte) ([]byte, error) {
	hdr, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("core: encoding shard header: %w", err)
	}
	buf := make([]byte, 0, len(shardMagic)+4+len(hdr)+len(payload))
	buf = append(buf, shardMagic...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(hdr)))
	buf = append(buf, hdr...)
	return append(buf, payload...), nil
}

// writeArtifactBytes writes header h and the payload bytes as an
// artifact file, for tests that re-label a real artifact's payload.
func writeArtifactBytes(path string, h ShardHeader, payload []byte) error {
	data, err := encodeShardArtifact(h, payload)
	if err != nil {
		return err
	}
	return WriteShardArtifactFile(path, data)
}

// artifactPayload returns the payload bytes after an artifact's magic and
// header; data must already have decoded.
func artifactPayload(data []byte) []byte {
	hlen := int(binary.BigEndian.Uint32(data[len(shardMagic):]))
	return data[len(shardMagic)+4+hlen:]
}

// TestShardArtifactRefusals pins the text of the artifact refusals the
// committed inputs reach. Stream codec 1 still carried the retired PCG
// stream's flag byte in every stream header, so its artifacts stop at
// the version check: the fig5 shard a codec-1 build wrote
// (fig5-streamcodec1.shard1-of2, shard 1 of 2 at 257 draws) and the
// FuzzShardArtifact crasher. The crasher's codec-2 copy still reaches
// the record-count guard. The fig5 shard's run key, whose pre-image
// spelled the flag, no longer reproduces in Verify either.
func TestShardArtifactRefusals(t *testing.T) {
	codec1 := filepath.Join("testdata", "fig5-streamcodec1.shard1-of2")
	if _, err := ReadShardArtifact(codec1); err == nil || !strings.Contains(err.Error(), "mc: stream codec version 1, want 2") {
		t.Errorf("codec-1 fig5 shard: %v", err)
	}
	for _, c := range []struct{ input, want string }{
		{"f12694b167810de7", "mc: stream codec version 1, want 2"},
		{"c32892a39e7eb614", "mc: stream 0 claims 9060182779768880 records in 0 bytes"},
	} {
		if _, err := DecodeShardArtifact(fuzzInput(t, c.input)); err == nil || err.Error() != c.want {
			t.Errorf("crasher %s: %v, want %q", c.input, err, c.want)
		}
	}

	data, err := os.ReadFile(codec1)
	if err != nil {
		t.Fatal(err)
	}
	hlen := int(binary.BigEndian.Uint32(data[len(shardMagic):]))
	var h ShardHeader
	if err := json.Unmarshal(data[len(shardMagic)+4:len(shardMagic)+4+hlen], &h); err != nil {
		t.Fatal(err)
	}
	a := &ShardArtifact{Header: h}
	if err := a.Verify("", mc.ShardSpec{Index: 1, Count: 2}); err == nil || !strings.Contains(err.Error(), "does not reproduce") {
		t.Errorf("codec-1 fig5 shard's run key: %v", err)
	}
}

// fuzzInput returns the []byte a FuzzShardArtifact corpus file holds.
func fuzzInput(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzShardArtifact", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-value corpus file", name)
	}
	v, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(v)
}
