// Package remote is the shard-worker fabric: it lets one `mpvar serve`
// coordinator dispatch the shards of a heavy run to peer `mpvar serve`
// workers over HTTP and land the finished artifacts locally, where the
// existing exact left-fold reduce (core.Reduce) folds them exactly as if
// the shards had run in-process — the response body stays byte-identical
// to direct execution and shares its cache entry.
//
// The wire contract is deliberately thin. A dispatch is one POST
// /v1/shards carrying the normalized run identity (the same tuple the
// run key hashes) plus an optional checkpoint to resume from; the worker
// recomputes the run key and refuses on mismatch, so an engine-drifted
// peer answers 409 instead of corrupting a reduce. The response is a
// line-framed stream: `progress` frames ride the shard's frontier,
// `checkpoint` frames periodically ship the worker's resumable artifact
// bytes back (that is what makes a dead worker cheap — the coordinator
// re-dispatches from the last shipped frontier), and the stream ends
// with either an `artifact` frame carrying the complete artifact bytes
// or an `error` frame. The worker keeps no file: core.RunShardTo hands
// it each checkpoint and the finished artifact, and it encodes them
// straight into frames. Both ends validate every shipped artifact with
// core's key recomputation before trusting it.
package remote

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"mpsram/internal/core"
	"mpsram/internal/exp"
	"mpsram/internal/mc"
)

// ShardsPath is the dispatch endpoint every `mpvar serve` mounts.
const ShardsPath = "/v1/shards"

// ShardRequest is the POST /v1/shards body: the normalized run identity
// (exactly the fields core.RunSpec.Key hashes), the shard coordinates,
// and an optional checkpoint artifact to resume from. Engine and RunKey
// are the drift tripwires — the worker recomputes the key from the spec
// fields and refuses the dispatch when either disagrees.
type ShardRequest struct {
	Engine     string     `json:"engine"`
	RunKey     string     `json:"run_key"`
	Workload   string     `json:"workload"`
	Params     exp.Params `json:"params,omitempty"`
	Process    string     `json:"process,omitempty"`
	Seed       int64      `json:"seed"`
	Samples    int        `json:"samples"`
	ShardIndex int        `json:"shard_index"`
	ShardCount int        `json:"shard_count"`
	// Checkpoint, when present, is a resumable artifact in the on-disk
	// container format (base64 in JSON); the worker verifies it against
	// RunKey and the shard coordinates before resuming from its frontier.
	Checkpoint []byte `json:"checkpoint,omitempty"`
}

// NewShardRequest builds the dispatch body for a normalized spec.
func NewShardRequest(spec core.RunSpec, shard mc.ShardSpec, runKey string, checkpoint []byte) ShardRequest {
	return ShardRequest{
		Engine: core.EngineVersion, RunKey: runKey,
		Workload: spec.Workload, Params: spec.Params, Process: spec.Process,
		Seed: spec.Seed, Samples: spec.Samples,
		ShardIndex: shard.Index, ShardCount: shard.Count,
		Checkpoint: checkpoint,
	}
}

// Spec rebuilds the RunSpec the request identifies. JSON transport turns
// typed parameter values into float64s; Normalize re-coerces them
// against the workload schema, which is what makes the recomputed key
// comparable to RunKey.
func (r ShardRequest) Spec() core.RunSpec {
	return core.RunSpec{Workload: r.Workload, Params: r.Params, Process: r.Process,
		Seed: r.Seed, Samples: r.Samples}
}

// Shard returns the dispatch's shard coordinates.
func (r ShardRequest) Shard() mc.ShardSpec {
	return mc.ShardSpec{Index: r.ShardIndex, Count: r.ShardCount}
}

// ---------------------------------------------------------------- frames
//
// The response stream is a sequence of frames, each a header line plus
// (for blob kinds) exactly the announced number of raw bytes and a
// trailing newline:
//
//	progress <done> <total>\n
//	checkpoint <n>\n<n bytes>\n
//	artifact <n>\n<n bytes>\n
//	error <quoted message>\n
//
// `artifact` and `error` are terminal. The format is line-first so a
// truncated stream (worker killed mid-run) fails parsing loudly instead
// of yielding a short artifact.

const (
	frameProgress   = "progress"
	frameCheckpoint = "checkpoint"
	frameArtifact   = "artifact"
	frameError      = "error"

	// maxBlobBytes bounds one shipped artifact; far above any real shard
	// payload, it only guards the reader against a corrupt length header.
	maxBlobBytes = 1 << 30

	// maxFrameLine bounds a frame's header line, newline included: the
	// size of a default bufio.Reader, whose ReadSlice refuses a longer
	// line instead of growing with it.
	maxFrameLine = 4096
	// maxErrorBytes bounds an error frame's message. Quoting spends at
	// most four bytes on each, so the frame's line stays within
	// maxFrameLine.
	maxErrorBytes = (maxFrameLine - len(frameError+` ""`+"\n")) / 4
)

// frameWriter writes frames onto an HTTP response, flushing each one so
// progress and checkpoints reach the coordinator while the shard is
// still running. Its callers are serialized — the progress hook and the
// checkpoint saves run inside the scheduler's block emission, the rest
// before or after the run — and the first write error sticks: once the
// coordinator is gone there is nobody to ship to.
type frameWriter struct {
	w   io.Writer
	rc  *http.ResponseController
	err error
}

func newFrameWriter(w http.ResponseWriter) *frameWriter {
	return &frameWriter{w: w, rc: http.NewResponseController(w)}
}

func (fw *frameWriter) flush() {
	if fw.rc != nil {
		fw.rc.Flush()
	}
}

func (fw *frameWriter) progress(done, total int) error {
	if fw.err != nil {
		return fw.err
	}
	_, fw.err = fmt.Fprintf(fw.w, "%s %d %d\n", frameProgress, done, total)
	fw.flush()
	return fw.err
}

func (fw *frameWriter) blob(kind string, data []byte) error {
	if fw.err != nil {
		return fw.err
	}
	if _, fw.err = fmt.Fprintf(fw.w, "%s %d\n", kind, len(data)); fw.err != nil {
		return fw.err
	}
	if _, fw.err = fw.w.Write(data); fw.err != nil {
		return fw.err
	}
	_, fw.err = io.WriteString(fw.w, "\n")
	fw.flush()
	return fw.err
}

// sendError writes the terminal error frame, its message cut to
// maxErrorBytes so the coordinator's bounded read accepts the line.
func (fw *frameWriter) sendError(msg string) error {
	if fw.err != nil {
		return fw.err
	}
	if len(msg) > maxErrorBytes {
		msg = msg[:maxErrorBytes]
	}
	_, fw.err = fmt.Fprintf(fw.w, "%s %s\n", frameError, strconv.Quote(msg))
	fw.flush()
	return fw.err
}

// frame is one decoded response frame.
type frame struct {
	kind        string
	done, total int    // progress
	data        []byte // checkpoint / artifact
	msg         string // error
}

// readFrame parses the next frame off the stream. io.EOF after a
// complete frame boundary surfaces as-is; anything torn mid-frame is an
// explicit parse error. The header line is read in place from br's
// buffer, so a peer that never sends a newline is refused once it fills
// the buffer (maxFrameLine for a default reader) rather than grown.
func readFrame(br *bufio.Reader) (*frame, error) {
	raw, err := br.ReadSlice('\n')
	switch {
	case err == bufio.ErrBufferFull:
		return nil, fmt.Errorf("remote: frame header longer than %d bytes", len(raw))
	case err == io.EOF && len(raw) == 0:
		return nil, io.EOF
	case err != nil:
		return nil, fmt.Errorf("remote: torn frame header %q: %w", raw, err)
	}
	line := string(raw[:len(raw)-1])
	kind, rest, _ := strings.Cut(line, " ")
	switch kind {
	case frameProgress:
		f := &frame{kind: kind}
		if _, err := fmt.Sscanf(rest, "%d %d", &f.done, &f.total); err != nil {
			return nil, fmt.Errorf("remote: bad progress frame %q", line)
		}
		return f, nil
	case frameCheckpoint, frameArtifact:
		n, err := strconv.Atoi(rest)
		if err != nil || n < 0 || n > maxBlobBytes {
			return nil, fmt.Errorf("remote: bad %s frame length %q", kind, rest)
		}
		// Copy rather than allocate n up front: the length comes from the
		// peer, so memory must track the bytes that actually arrive.
		var data bytes.Buffer
		if _, err := io.CopyN(&data, br, int64(n)); err != nil {
			return nil, fmt.Errorf("remote: %s frame truncated at %d bytes: %w", kind, n, err)
		}
		if nl, err := br.ReadByte(); err != nil || nl != '\n' {
			return nil, fmt.Errorf("remote: %s frame missing terminator", kind)
		}
		return &frame{kind: kind, data: data.Bytes()}, nil
	case frameError:
		msg, err := strconv.Unquote(rest)
		if err != nil || len(msg) > maxErrorBytes {
			return nil, fmt.Errorf("remote: bad error frame %q", line)
		}
		return &frame{kind: kind, msg: msg}, nil
	default:
		return nil, fmt.Errorf("remote: unknown frame kind %q", line)
	}
}
