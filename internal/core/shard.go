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
// whose header says complete=false. RunShardTo hands each checkpoint
// and the finished artifact to a caller's sink as a writer of its bytes
// (magic, header length, header JSON, then the payload
// mc.ShardRun.WritePayload encodes); the remote worker's sink ships them
// as frames. RunShard's sink streams them to disk through one
// bufio.Writer, and an artifact comes back through one bufio.Reader,
// never assembled in memory or read whole: a reduce opens every artifact
// of the set, checks the headers, and has mc.NewReplay decode the
// payloads straight into the arrays the fold uses. File writes are
// atomic (tmp + rename), so a kill during a checkpoint leaves the
// previous one intact.
package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"mpsram/internal/exp"
	"mpsram/internal/mc"
	"mpsram/internal/stats"
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

// WriteShardArtifactFile persists already-encoded artifact bytes
// atomically (tmp + rename), the same write discipline RunShard uses —
// the remote fabric's coordinator lands received artifact and checkpoint
// bytes through it so a crash mid-write never corrupts a resumable file.
func WriteShardArtifactFile(path string, data []byte) error {
	return writeFileAtomic(path, func(w *bufio.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// writeFileAtomic has write fill path+".tmp" through a buffered writer
// and renames it over path, so path only ever holds a complete file. A
// failed write removes the temporary file.
func writeFileAtomic(path string, write func(*bufio.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := errors.Join(write(w), w.Flush(), f.Close()); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// readShardHeader reads an artifact's magic and header from r, whose
// next size bytes are the whole artifact, rejecting foreign magics,
// truncated headers and engine-version drift. The payload is left to the
// returned reader, whose budget is the bytes that follow the header.
func readShardHeader(r io.Reader, size int64) (ShardHeader, *stats.CodecReader, error) {
	var h ShardHeader
	br := bufio.NewReader(r)
	prefix, err := br.Peek(len(shardMagic) + 4)
	if err != nil || size < int64(len(prefix)) || string(prefix[:len(shardMagic)]) != string(shardMagic) {
		return h, nil, fmt.Errorf("core: not a shard artifact (magic %q missing)", shardMagic)
	}
	hlen := int64(binary.BigEndian.Uint32(prefix[len(shardMagic):]))
	br.Discard(len(prefix))
	rest := size - int64(len(prefix))
	if hlen < 2 || hlen > rest {
		return h, nil, fmt.Errorf("core: shard header truncated")
	}
	hdr := make([]byte, hlen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return h, nil, fmt.Errorf("core: shard header truncated")
	}
	if err := json.Unmarshal(hdr, &h); err != nil {
		return h, nil, fmt.Errorf("core: shard header: %w", err)
	}
	if h.EngineVersion != EngineVersion {
		return h, nil, fmt.Errorf("core: artifact was produced by engine %s, this build is %s — regenerate the shards", h.EngineVersion, EngineVersion)
	}
	return h, stats.NewCodecReader(br, int(rest-hlen)), nil
}

// DecodeShardArtifact parses artifact or checkpoint bytes — a peer's
// shipped artifact — rejecting foreign magics, truncated headers,
// engine-version drift and corrupt payloads. It runs the decoder
// ReadShardArtifact runs on a file.
func DecodeShardArtifact(data []byte) (*ShardArtifact, error) {
	h, payload, err := readShardHeader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	p, err := mc.DecodeShardPayload(payload)
	if err != nil {
		return nil, err
	}
	return &ShardArtifact{Header: h, Payload: p}, nil
}

// openShardArtifact opens the artifact at path and reads its header,
// leaving the payload to the returned reader; the caller closes the
// file once it is done with the payload. Header errors name the path.
func openShardArtifact(path string) (*os.File, ShardHeader, *stats.CodecReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, ShardHeader{}, nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, ShardHeader{}, nil, err
	}
	h, payload, err := readShardHeader(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, h, nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, h, payload, nil
}

// ReadShardArtifact parses a shard artifact or checkpoint file,
// streaming it through a buffered reader, and rejects what
// DecodeShardArtifact rejects.
func ReadShardArtifact(path string) (*ShardArtifact, error) {
	f, h, payload, err := openShardArtifact(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := mc.DecodeShardPayload(payload)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &ShardArtifact{Header: h, Payload: p}, nil
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

// ShardRunOptions tunes RunShard and RunShardTo.
type ShardRunOptions struct {
	// CheckpointEvery, when positive, saves the running artifact (as an
	// incomplete checkpoint) whenever at least this much wall time has
	// passed since the previous save. Zero disables periodic saves; the
	// frontier is still saved on error exit and the full artifact on
	// success.
	CheckpointEvery time.Duration
	// Resume has RunShard load an existing artifact at the output path
	// and continue after its frontier instead of starting over. A
	// complete artifact short-circuits to success; a missing file starts
	// fresh. RunShardTo resumes from its resume argument alone.
	Resume bool
	// Progress, if non-nil, receives the shard's trial frontier (done and
	// total trials across the streams begun so far, resumed records
	// included) each time it advances — serialized by the scheduler, like
	// CheckpointEvery's saves. It is also invoked once before execution
	// starts, so a resumed shard reports its checkpointed frontier
	// immediately.
	Progress func(done, total int)
}

// RunShard executes the shard's block range of every stream in the
// spec's workload and writes the partial-aggregate artifact to path:
// RunShardTo with each save written to path atomically, resumed from the
// artifact at path when opt.Resume is set. On any error — including
// cancellation — the frontier reached so far is persisted as a resumable
// checkpoint before the error is returned, so an interrupted run never
// loses completed blocks.
func RunShard(spec RunSpec, shard mc.ShardSpec, path string, opt ShardRunOptions, extra ...Option) error {
	var resume *ShardArtifact
	if opt.Resume {
		var err error
		if resume, err = ReadShardArtifact(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return RunShardTo(spec, shard, resume, opt, func(_ bool, write func(*bufio.Writer) error) error {
		return writeFileAtomic(path, write)
	}, extra...)
}

// RunShardTo executes the shard's block range of every stream in the
// spec's workload, fresh or after resume's frontier, and hands save each
// periodic checkpoint (opt.CheckpointEvery), the frontier an error stops
// at and the finished artifact (complete true) as write, which streams
// the artifact's bytes into a writer and flushes it. Periodic saves run
// inside the scheduler's serialized block emission, and a failed one is
// reported with the run's outcome without stopping the run. The workload
// runs on empty engine results (see mc.Config.Shard) and its rendering
// is discarded: the result comes from Reduce. A resume of another run or
// shard is refused; a complete one is already the artifact, so nothing
// runs and save is not called.
func RunShardTo(spec RunSpec, shard mc.ShardSpec, resume *ShardArtifact, opt ShardRunOptions,
	save func(complete bool, write func(*bufio.Writer) error) error, extra ...Option) error {
	if err := shard.Validate(); err != nil {
		return err
	}
	n, key, err := spec.Resolve()
	if err != nil {
		return err
	}
	var sr *mc.ShardRun
	if resume != nil {
		h := resume.Header
		if h.RunKey != key || h.ShardIndex != shard.Index || h.ShardCount != shard.Count {
			return fmt.Errorf("core: checkpoint belongs to a different run or shard (run %.12s shard %d/%d, want %.12s shard %d/%d)",
				h.RunKey, h.ShardIndex, h.ShardCount, key, shard.Index, shard.Count)
		}
		if h.Complete {
			return nil // nothing to resume — the shard already finished
		}
		if sr, err = mc.ResumeShardRun(shard, resume.Payload); err != nil {
			return err
		}
	} else if sr, err = mc.NewShardRun(shard); err != nil {
		return err
	}
	hdr := ShardHeader{
		RunKey: key, EngineVersion: EngineVersion,
		Workload: n.Workload, Params: n.Params, Process: n.Process,
		Seed: n.Seed, Samples: n.Samples,
		ShardIndex: shard.Index, ShardCount: shard.Count,
	}
	// write streams the capture's current state as an artifact under hdr.
	write := func(w *bufio.Writer) error {
		js, err := json.Marshal(hdr)
		if err != nil {
			return fmt.Errorf("core: encoding shard header: %w", err)
		}
		// The writer latches a failed write; WritePayload's flush reports it.
		w.Write(shardMagic)
		w.Write(binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(len(js))))
		w.Write(js)
		return sr.WritePayload(w)
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
			if err := save(false, write); err != nil && ckptErr == nil {
				ckptErr = err
			}
		}
	}
	_, runErr := n.Run(append(append([]Option(nil), extra...), withShardRun(sr))...)
	// The frontier is saved before an error is reported, so interrupt and
	// resume works even without periodic checkpoints.
	hdr.Complete = runErr == nil
	return errors.Join(runErr, save(hdr.Complete, write), ckptErr)
}

// Reduce re-merges one complete shard set in block order and returns the
// workload result — byte-identical to running the spec single-process.
// The artifacts carry the full run identity, so no spec is needed; the
// recomputed run key must match the recorded one, which catches stale
// artifacts (engine bumps, parameter-schema drift) automatically. Every
// artifact stays open while mc.NewReplay decodes the payloads, stream by
// stream across the set, and a payload error names its file.
func Reduce(paths []string, extra ...Option) (*exp.Result, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("core: no shard artifacts to reduce")
	}
	hdrs := make([]ShardHeader, len(paths))
	payloads := make([]*stats.CodecReader, len(paths))
	// refuse reports a fault of the set, unless an artifact's payload
	// fails to decode: a corrupt or foreign file is the deeper fault, and
	// it was reported first when every artifact was decoded before the
	// set was checked. Only a refused set pays for the decode.
	refuse := func(err error) (*exp.Result, error) {
		for i, p := range payloads {
			if p == nil {
				break
			}
			if _, derr := mc.DecodeShardPayload(p); derr != nil {
				return nil, fmt.Errorf("%s: %w", paths[i], derr)
			}
		}
		return nil, err
	}
	for i, p := range paths {
		f, h, payload, err := openShardArtifact(p)
		if err != nil {
			return refuse(err)
		}
		defer f.Close()
		hdrs[i], payloads[i] = h, payload
		if !h.Complete {
			return refuse(fmt.Errorf("core: %s is an incomplete checkpoint — resume it with RunShard before reducing", p))
		}
	}
	base := hdrs[0]
	count := base.ShardCount
	if len(paths) != count {
		return refuse(fmt.Errorf("core: run %.12s was split into %d shards, got %d artifacts", base.RunKey, count, len(paths)))
	}
	parts := make([]*stats.CodecReader, count)
	names := make([]string, count)
	for i, h := range hdrs {
		if h.RunKey != base.RunKey || h.ShardCount != count {
			return refuse(fmt.Errorf("core: %s belongs to run %.12s (%d shards), the set is run %.12s (%d shards)",
				paths[i], h.RunKey, h.ShardCount, base.RunKey, count))
		}
		if h.ShardIndex < 0 || h.ShardIndex >= count {
			return refuse(fmt.Errorf("core: %s claims shard %d of %d", paths[i], h.ShardIndex, count))
		}
		if parts[h.ShardIndex] != nil {
			return refuse(fmt.Errorf("core: duplicate artifact for shard %d of run %.12s", h.ShardIndex, base.RunKey))
		}
		parts[h.ShardIndex], names[h.ShardIndex] = payloads[i], paths[i]
	}
	for i, p := range parts {
		if p == nil {
			return refuse(fmt.Errorf("core: shard %d of run %.12s is missing from the artifact set", i, base.RunKey))
		}
	}
	if err := (&ShardArtifact{Header: base}).Verify("", mc.ShardSpec{Index: base.ShardIndex, Count: count}); err != nil {
		return refuse(err)
	}
	sr, err := mc.NewReplay(parts, names)
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
