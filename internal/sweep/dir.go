package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"muzzle/internal/faults"
)

// Dir is the resume state of a sweep artifact directory: the manifest, the
// set of completed cells, and the persistence rules that make the layout
// crash-safe. It is the single authority over the on-disk format — the
// coordinator (internal/coord) writes through it whether cells run in
// process or on muzzled workers, so a directory started one way can be
// finished the other.
//
// All writes are atomic: cell files and the manifest go through a unique
// temp file in the same directory, fsync, then rename, so a crash mid-write
// can never leave a torn cells/N.json at its final path. Reads are equally
// defensive: a corrupt or mismatched cell file is treated as missing — the
// cell re-runs — never as a fatal error.
type Dir struct {
	dir string
	e   *Expanded

	mu         sync.Mutex
	m          manifest
	done       map[int]bool
	preloaded  map[int]CellReport
	faultScope string
}

// SetFaultScope subjects the directory's writes to the process-global
// fault injector (internal/faults) under the given scope. Tests only;
// the scope is empty in production.
func (d *Dir) SetFaultScope(scope string) {
	d.mu.Lock()
	d.faultScope = scope
	d.mu.Unlock()
}

// OpenDir binds an expanded grid to an artifact directory, creating it if
// needed. A directory holding a different grid's manifest (or a manifest
// from an incompatible layout version) is rejected rather than overwritten.
// Completed cells recorded in the manifest are reloaded; each one is
// validated against the grid's cell list, and any unreadable, corrupt, or
// mismatched artifact is silently dropped so the cell re-runs.
func OpenDir(dir string, e *Expanded) (*Dir, error) {
	hash, err := Hash(e.Grid)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, cellsDir), 0o755); err != nil {
		return nil, fmt.Errorf("sweep: create artifact dir: %w", err)
	}

	d := &Dir{
		dir:       dir,
		e:         e,
		m:         manifest{Version: manifestVersion, GridHash: hash, Cells: len(e.Cells)},
		done:      make(map[int]bool),
		preloaded: make(map[int]CellReport),
	}
	if data, err := os.ReadFile(filepath.Join(dir, manifestFile)); err == nil {
		var prev manifest
		if err := json.Unmarshal(data, &prev); err != nil {
			return nil, fmt.Errorf("sweep: corrupt manifest in %s: %w", dir, err)
		}
		if prev.Version != manifestVersion {
			return nil, fmt.Errorf("sweep: manifest in %s has version %d, this binary writes %d; use a fresh directory",
				dir, prev.Version, manifestVersion)
		}
		if prev.GridHash != hash {
			return nil, fmt.Errorf("sweep: directory %s belongs to a different grid (hash %.12s..., this grid %.12s...); use a fresh directory",
				dir, prev.GridHash, hash)
		}
		d.m.Done = prev.Done
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("sweep: read manifest: %w", err)
	}

	for _, idx := range d.m.Done {
		if idx < 0 || idx >= len(e.Cells) {
			continue
		}
		data, err := os.ReadFile(cellPath(dir, idx))
		if err != nil {
			continue
		}
		var cr CellReport
		if err := json.Unmarshal(data, &cr); err != nil || cr.Index != idx || cr.ID != e.Cells[idx].ID {
			continue
		}
		d.preloaded[idx] = cr
		d.done[idx] = true
	}
	return d, nil
}

// Preloaded returns a copy of the completed cell reports reloaded at open:
// the cells a run over this directory does not need to execute again.
func (d *Dir) Preloaded() map[int]CellReport {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[int]CellReport, len(d.preloaded))
	for idx, cr := range d.preloaded {
		out[idx] = cr
	}
	return out
}

// DoneCount returns how many cells the directory currently records as
// complete.
func (d *Dir) DoneCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.done)
}

// Persist atomically writes one finished cell under cells/ and folds it
// into the manifest. Safe for concurrent use.
func (d *Dir) Persist(cr CellReport) error {
	data, err := json.MarshalIndent(cr, "", "  ")
	if err != nil {
		return fmt.Errorf("sweep: encode cell %q: %w", cr.ID, err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := writeFileAtomic(d.faultScope, cellPath(d.dir, cr.Index), append(data, '\n')); err != nil {
		return err
	}
	d.done[cr.Index] = true
	return d.writeManifestLocked()
}

// writeManifestLocked rewrites the manifest from the current done set.
func (d *Dir) writeManifestLocked() error {
	d.m.Done = make([]int, 0, len(d.done))
	for idx := range d.done {
		d.m.Done = append(d.m.Done, idx)
	}
	sort.Ints(d.m.Done)
	data, err := json.MarshalIndent(d.m, "", "  ")
	if err != nil {
		return fmt.Errorf("sweep: encode manifest: %w", err)
	}
	return writeFileAtomic(d.faultScope, filepath.Join(d.dir, manifestFile), append(data, '\n'))
}

// WriteReports writes the aggregated report.json and report.csv artifacts.
func (d *Dir) WriteReports(rep *Report) error {
	var jbuf, cbuf bytesBuffer
	if err := WriteJSON(&jbuf, rep); err != nil {
		return err
	}
	if err := WriteCSV(&cbuf, rep); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := writeFileAtomic(d.faultScope, filepath.Join(d.dir, reportFile), jbuf.b); err != nil {
		return err
	}
	return writeFileAtomic(d.faultScope, filepath.Join(d.dir, reportCSV), cbuf.b)
}

// bytesBuffer is a minimal io.Writer over a byte slice (avoids pulling in
// bytes.Buffer's unused surface for two short-lived writes).
type bytesBuffer struct{ b []byte }

func (w *bytesBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// writeFileAtomic writes data to path via a uniquely named temp file in the
// same directory, fsyncs it, then renames it into place. The unique name
// keeps concurrent writers (two processes resuming the same directory) from
// trampling each other's temp files, and the fsync-before-rename ensures a
// crash can never surface a torn file at the final path. A non-empty
// faultScope announces the write, fsync, and rename to the fault injector;
// a torn-write fault leaves a partial temp file, which the deferred Remove
// cleans up — the final path is never affected, even under injection.
func writeFileAtomic(faultScope, path string, data []byte) error {
	dir, base := filepath.Split(path)
	data, injErr := faults.CheckWrite(faultScope, data)
	if injErr != nil && len(data) == 0 {
		return injErr
	}
	tmp, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if injErr != nil { // injected torn write: the partial temp file dies here
		tmp.Close()
		return injErr
	}
	if err := faults.Check(faultScope, faults.OpSync); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	if err := faults.Check(faultScope, faults.OpRename); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
