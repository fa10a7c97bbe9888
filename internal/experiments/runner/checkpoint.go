package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// CheckpointSchema identifies the sweep checkpoint format.
const CheckpointSchema = "xmem.sweep.v1"

// checkpointFile is the on-disk shape: one record per completed point,
// keyed by point key. Failed points are recorded too (with Err set), so a
// resumed sweep retries exactly the failed and missing points.
type checkpointFile struct {
	Schema string                 `json:"schema"`
	Sweep  string                 `json:"sweep"`
	Points map[string]pointRecord `json:"points"`
}

type pointRecord struct {
	Result    json.RawMessage `json:"result,omitempty"`
	Err       string          `json:"err,omitempty"`
	WallNanos int64           `json:"wallNanos"`
}

// checkpoint persists outcomes as they complete. Callers serialize access
// (the runner holds its completion mutex around record).
type checkpoint struct {
	path  string
	state checkpointFile
}

// checkpointPath returns the checkpoint file a sweep uses under dir.
func checkpointPath(dir, sweep string) string {
	return filepath.Join(dir, sanitizeFile(sweep)+".ckpt.json")
}

// sanitizeFile maps a sweep name to a filesystem-safe base name.
func sanitizeFile(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_' || r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// openCheckpoint prepares the sweep's checkpoint per the options: nil when
// checkpointing is off, otherwise a checkpoint preloaded with resumable
// records when Resume is set and a prior file exists. It creates the
// checkpoint directory, so a bad path fails before any point runs.
func openCheckpoint(sweep string, opt Options) (*checkpoint, error) {
	if opt.CheckpointDir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(opt.CheckpointDir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: checkpoint directory: %w", err)
	}
	ck := &checkpoint{
		path: checkpointPath(opt.CheckpointDir, sweep),
		state: checkpointFile{
			Schema: CheckpointSchema,
			Sweep:  sweep,
			Points: map[string]pointRecord{},
		},
	}
	if !opt.Resume {
		return ck, nil
	}
	data, err := os.ReadFile(ck.path)
	if os.IsNotExist(err) {
		return ck, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runner: reading checkpoint: %w", err)
	}
	var prior checkpointFile
	if err := json.Unmarshal(data, &prior); err != nil {
		return nil, fmt.Errorf("runner: checkpoint %s does not parse: %w", ck.path, err)
	}
	if prior.Schema != CheckpointSchema {
		return nil, fmt.Errorf("runner: checkpoint %s has schema %q, want %q", ck.path, prior.Schema, CheckpointSchema)
	}
	if prior.Sweep != sweep {
		return nil, fmt.Errorf("runner: checkpoint %s belongs to sweep %q, not %q", ck.path, prior.Sweep, sweep)
	}
	if prior.Points != nil {
		ck.state.Points = prior.Points
	}
	return ck, nil
}

// restore fills out from the checkpoint if it holds a successful result for
// out's key. Failed records are left for the re-run to overwrite.
func restore[R any](ck *checkpoint, out *Outcome[R]) bool {
	rec, ok := ck.state.Points[out.Key]
	if !ok || rec.Err != "" || rec.Result == nil {
		return false
	}
	var r R
	if err := json.Unmarshal(rec.Result, &r); err != nil {
		// Result shape changed since the checkpoint was written; re-run.
		delete(ck.state.Points, out.Key)
		return false
	}
	out.Result, out.Resumed, out.Wall = r, true, time.Duration(rec.WallNanos)
	return true
}

// record persists a completed outcome and rewrites the file atomically
// (temp file + rename), so an interrupt mid-write never corrupts the
// checkpoint.
func record[R any](ck *checkpoint, out Outcome[R]) error {
	rec := pointRecord{Err: out.Err, WallNanos: int64(out.Wall)}
	if out.Err == "" {
		raw, err := json.Marshal(out.Result)
		if err != nil {
			return fmt.Errorf("runner: marshaling %s result for checkpoint: %w", out.Key, err)
		}
		rec.Result = raw
	}
	ck.state.Points[out.Key] = rec
	data, err := json.MarshalIndent(&ck.state, "", " ")
	if err != nil {
		return fmt.Errorf("runner: marshaling checkpoint: %w", err)
	}
	tmp := ck.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("runner: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, ck.path); err != nil {
		return fmt.Errorf("runner: committing checkpoint: %w", err)
	}
	return nil
}
