// Shard artifacts: the file format and the run/reduce drivers that turn
// any registered workload into a distributed, resumable execution. A
// shard artifact is the RunSpec identity (JSON header, keyed by the same
// SHA-256 run key the serve cache uses) plus the mc payload — every
// captured stream's contiguous per-block aggregates. Because the header
// carries the full normalized spec, `Reduce` needs only the artifact
// files: it rebuilds the RunSpec, recomputes the key (so artifacts from
// an older EngineVersion or a drifted registry refuse to reduce instead
// of folding stale blocks), re-executes the workload on the engine
// capture mc.NewReplay merges from the set — every stream recorded, no
// trial executed — and renders the byte-identical single-process result.
//
// Checkpointing reuses the artifact format unchanged: a checkpoint is
// simply an artifact whose streams stop at the persisted frontier and
// whose header says complete=false. An artifact is written to disk in
// pieces (magic, header length, header JSON, then the payload
// mc.ShardRun.EncodePayload built at its final size), never assembled in
// memory. Writes are atomic (tmp + rename), so a kill during a
// checkpoint leaves the previous one intact.
package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"mpsram/internal/exp"
	"mpsram/internal/mc"
)

// shardMagic identifies (and versions) the artifact container; a format
// change gets a new magic, old files refuse loudly.
var shardMagic = []byte("mpshard1")

// ShardArtifactName is the conventional artifact filename for one shard
// of a run: the run key plus the shard coordinates, so a scratch
// directory shared between restarts (the serve layer's fan-out dir) maps
// each in-flight shard to exactly one resumable file.
func ShardArtifactName(runKey string, index, count int) string {
	return fmt.Sprintf("%s.shard%d-of%d", runKey, index, count)
}

// ShardHeader is the artifact's identity block.
type ShardHeader struct {
	RunKey        string     `json:"run_key"`
	EngineVersion string     `json:"engine_version"`
	Workload      string     `json:"workload"`
	Params        exp.Params `json:"params"`
	Process       string     `json:"process"`
	Seed          int64      `json:"seed"`
	Samples       int        `json:"samples"`
	ShardIndex    int        `json:"shard_index"`
	ShardCount    int        `json:"shard_count"`
	// Complete marks a finished shard; false marks a resumable
	// checkpoint. Reduce requires complete artifacts.
	Complete bool `json:"complete"`
}

// spec rebuilds the RunSpec the artifact identifies.
func (h ShardHeader) spec() RunSpec {
	return RunSpec{Workload: h.Workload, Params: h.Params, Process: h.Process, Seed: h.Seed, Samples: h.Samples}
}

// ShardArtifact is one decoded artifact or checkpoint file.
type ShardArtifact struct {
	Header  ShardHeader
	Payload *mc.ShardPayload
}

// writeShardArtifact persists header+payload atomically: a kill mid-write
// can only ever lose the newest checkpoint, never corrupt the file. The
// container's pieces (magic, header length, header JSON, payload) are
// written to the file in sequence rather than joined in memory first, so
// the payload is never copied.
func writeShardArtifact(path string, h ShardHeader, payload []byte) error {
	hdr, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("core: encoding shard header: %w", err)
	}
	var hlen [4]byte
	binary.BigEndian.PutUint32(hlen[:], uint32(len(hdr)))
	return writeFileAtomic(path, shardMagic, hlen[:], hdr, payload)
}

// WriteShardArtifactFile persists already-encoded artifact bytes
// atomically (tmp + rename), the same write discipline writeShardArtifact
// uses — the remote fabric's coordinator lands received artifact and
// checkpoint bytes through it so a crash mid-write never corrupts a
// resumable file.
func WriteShardArtifactFile(path string, data []byte) error {
	return writeFileAtomic(path, data)
}

// writeFileAtomic writes the pieces in order to path+".tmp" and renames
// it over path, so path only ever holds a complete file.
func writeFileAtomic(path string, pieces ...[]byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, p := range pieces {
		if _, err := f.Write(p); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// DecodeShardArtifact parses artifact or checkpoint bytes — a file's
// contents or a peer's shipped artifact — rejecting foreign magics,
// truncated headers, engine-version drift and corrupt payloads. It is
// the one decoder under ReadShardArtifact too.
func DecodeShardArtifact(data []byte) (*ShardArtifact, error) {
	if len(data) < len(shardMagic)+4 || string(data[:len(shardMagic)]) != string(shardMagic) {
		return nil, fmt.Errorf("core: not a shard artifact (magic %q missing)", shardMagic)
	}
	rest := data[len(shardMagic):]
	hlen := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if hlen < 2 || hlen > len(rest) {
		return nil, fmt.Errorf("core: shard header truncated")
	}
	var h ShardHeader
	if err := json.Unmarshal(rest[:hlen], &h); err != nil {
		return nil, fmt.Errorf("core: shard header: %w", err)
	}
	if h.EngineVersion != EngineVersion {
		return nil, fmt.Errorf("core: artifact was produced by engine %s, this build is %s — regenerate the shards", h.EngineVersion, EngineVersion)
	}
	p, err := mc.DecodeShardPayload(rest[hlen:])
	if err != nil {
		return nil, err
	}
	return &ShardArtifact{Header: h, Payload: p}, nil
}

// ReadShardArtifact parses a shard artifact or checkpoint file,
// rejecting foreign magics, truncated headers and corrupt payloads.
func ReadShardArtifact(path string) (*ShardArtifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := DecodeShardArtifact(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// Verify checks that the artifact is what a caller expecting (runKey,
// shard) should accept: the coordinates match, and the header's spec
// still reproduces its recorded run key under the current engines.
// Reduce runs it on a set's first artifact, and both ends of the remote
// shard fabric run it to refuse drifted or foreign artifacts before any
// bytes land in a reduce set. An empty runKey skips the caller-side key
// comparison and only validates internal consistency.
func (a *ShardArtifact) Verify(runKey string, shard mc.ShardSpec) error {
	h := a.Header
	if h.ShardIndex != shard.Index || h.ShardCount != shard.Count {
		return fmt.Errorf("core: artifact covers shard %d/%d, want %d/%d", h.ShardIndex, h.ShardCount, shard.Index, shard.Count)
	}
	key, err := h.spec().Key()
	if err != nil {
		return fmt.Errorf("core: artifact spec no longer validates: %w", err)
	}
	if key != h.RunKey {
		return fmt.Errorf("core: artifact run key %.12s does not reproduce under the current engines (%.12s) — regenerate the shards", h.RunKey, key)
	}
	if runKey != "" && key != runKey {
		return fmt.Errorf("core: artifact belongs to run %.12s, want %.12s", h.RunKey, runKey)
	}
	return nil
}

// withShardRun installs the engine's capture after the spec's WithMC has
// built the base config; unexported because the public surface is
// RunShard and Reduce.
func withShardRun(sr *mc.ShardRun) Option { return func(e *exp.Env) { e.MC.Shard = sr } }

// ShardRunOptions tunes RunShard.
type ShardRunOptions struct {
	// CheckpointEvery, when positive, persists the running artifact (as
	// an incomplete checkpoint) whenever at least this much wall time has
	// passed since the previous write. Zero disables periodic writes; the
	// frontier is still persisted on error exit and the full artifact on
	// success.
	CheckpointEvery time.Duration
	// Resume loads an existing artifact at the output path and continues
	// after its frontier instead of starting over. A complete artifact
	// short-circuits to success; a missing file starts fresh.
	Resume bool
	// Progress, if non-nil, receives the shard's trial frontier (done and
	// total trials across the streams begun so far, resumed records
	// included) each time it advances — serialized by the scheduler, like
	// CheckpointEvery's writes. It is also invoked once before execution
	// starts, so a resumed shard reports its checkpointed frontier
	// immediately.
	Progress func(done, total int)
}

// RunShard executes the shard's block range of every stream in the
// spec's workload and writes the partial-aggregate artifact to path. The
// workload runs on empty engine results (see mc.Config.Shard), and its
// rendering is discarded: the result comes from Reduce. On
// any error — including cancellation — the contiguous frontier reached
// so far is persisted as a resumable checkpoint before the error is
// returned, so an interrupted run never loses completed blocks.
func RunShard(spec RunSpec, shard mc.ShardSpec, path string, opt ShardRunOptions, extra ...Option) error {
	if err := shard.Validate(); err != nil {
		return err
	}
	n, err := spec.Normalize()
	if err != nil {
		return err
	}
	key, err := n.Key()
	if err != nil {
		return err
	}
	hdr := ShardHeader{
		RunKey: key, EngineVersion: EngineVersion,
		Workload: n.Workload, Params: n.Params, Process: n.Process,
		Seed: n.Seed, Samples: n.Samples,
		ShardIndex: shard.Index, ShardCount: shard.Count,
	}
	var sr *mc.ShardRun
	if opt.Resume {
		switch art, rerr := ReadShardArtifact(path); {
		case rerr == nil:
			if art.Header.RunKey != key || art.Header.ShardIndex != shard.Index || art.Header.ShardCount != shard.Count {
				return fmt.Errorf("core: %s belongs to a different run or shard (run %.12s shard %d/%d, want %.12s shard %d/%d)",
					path, art.Header.RunKey, art.Header.ShardIndex, art.Header.ShardCount, key, shard.Index, shard.Count)
			}
			if art.Header.Complete {
				return nil // nothing to resume — the shard already finished
			}
			if sr, err = mc.ResumeShardRun(shard, art.Payload); err != nil {
				return err
			}
		case errors.Is(rerr, os.ErrNotExist):
			// fresh start below
		default:
			return rerr
		}
	}
	if sr == nil {
		if sr, err = mc.NewShardRun(shard); err != nil {
			return err
		}
	}
	sr.Progress = opt.Progress
	if opt.Progress != nil {
		opt.Progress(sr.Frontier())
	}
	var ckptErr error
	if opt.CheckpointEvery > 0 {
		last := time.Now()
		sr.Checkpoint = func() {
			if time.Since(last) < opt.CheckpointEvery {
				return
			}
			last = time.Now()
			if werr := writeShardArtifact(path, hdr, sr.EncodePayload()); werr != nil && ckptErr == nil {
				ckptErr = werr
			}
		}
	}
	_, runErr := n.Run(append(append([]Option(nil), extra...), withShardRun(sr))...)
	if runErr != nil {
		// Persist the frontier before reporting, so SIGINT + resume works
		// even without periodic checkpoints.
		return errors.Join(runErr, writeShardArtifact(path, hdr, sr.EncodePayload()), ckptErr)
	}
	hdr.Complete = true
	return errors.Join(writeShardArtifact(path, hdr, sr.EncodePayload()), ckptErr)
}

// Reduce re-merges one complete shard set in block order and returns the
// workload result — byte-identical to running the spec single-process.
// The artifacts carry the full run identity, so no spec is needed; the
// recomputed run key must match the recorded one, which catches stale
// artifacts (engine bumps, parameter-schema drift) automatically.
func Reduce(paths []string, extra ...Option) (*exp.Result, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("core: no shard artifacts to reduce")
	}
	arts := make([]*ShardArtifact, len(paths))
	for i, p := range paths {
		a, err := ReadShardArtifact(p)
		if err != nil {
			return nil, err
		}
		if !a.Header.Complete {
			return nil, fmt.Errorf("core: %s is an incomplete checkpoint — resume it with RunShard before reducing", p)
		}
		arts[i] = a
	}
	base := arts[0].Header
	count := base.ShardCount
	if len(paths) != count {
		return nil, fmt.Errorf("core: run %.12s was split into %d shards, got %d artifacts", base.RunKey, count, len(paths))
	}
	parts := make([]*mc.ShardPayload, count)
	for i, a := range arts {
		h := a.Header
		if h.RunKey != base.RunKey || h.ShardCount != count {
			return nil, fmt.Errorf("core: %s belongs to run %.12s (%d shards), the set is run %.12s (%d shards)",
				paths[i], h.RunKey, h.ShardCount, base.RunKey, count)
		}
		if h.ShardIndex < 0 || h.ShardIndex >= count {
			return nil, fmt.Errorf("core: %s claims shard %d of %d", paths[i], h.ShardIndex, count)
		}
		if parts[h.ShardIndex] != nil {
			return nil, fmt.Errorf("core: duplicate artifact for shard %d of run %.12s", h.ShardIndex, base.RunKey)
		}
		parts[h.ShardIndex] = a.Payload
	}
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("core: shard %d of run %.12s is missing from the artifact set", i, base.RunKey)
		}
	}
	if err := arts[0].Verify("", mc.ShardSpec{Index: base.ShardIndex, Count: count}); err != nil {
		return nil, err
	}
	sr, err := mc.NewReplay(parts)
	if err != nil {
		return nil, err
	}
	res, err := base.spec().Run(append(append([]Option(nil), extra...), withShardRun(sr))...)
	if err != nil {
		return nil, err
	}
	if err := sr.Done(); err != nil {
		return nil, err
	}
	return res, nil
}
