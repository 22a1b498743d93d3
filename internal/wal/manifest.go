package wal

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// ManifestName is the file naming a session directory's current durable
// state. It is only ever replaced by an atomic rename, so a reader sees
// either the old state or the new one, never a half-written mix.
const ManifestName = "MANIFEST"

// Manifest points recovery at a session's durable state: the spilled
// snapshot (a graph in the text serialization), the session version it
// captures, and the log whose records at or after LogOffset must be replayed
// on top of it. Snapshot and Log are file names relative to the session
// directory.
type Manifest struct {
	Version   uint64 `json:"version"`
	Snapshot  string `json:"snapshot"`
	Log       string `json:"log"`
	LogOffset int64  `json:"logOffset"`
	// Core and Shards, when present, make the spill shard-granular: Core
	// names the compiled snapshot's core blob (label universe, position
	// table, shard geometry) and Shards one file per CSR shard, in shard
	// order, all relative to the session directory. Recovery can then
	// rebuild the compiled snapshot without recompiling, reading and
	// checking every shard file once. Absent (a manifest written before
	// shard-granular spills, or after a codec version bump), recovery
	// recompiles from Snapshot — the fields are an optimization, never a
	// correctness requirement.
	Core   string   `json:"core,omitempty"`
	Shards []string `json:"shards,omitempty"`
}

// ReadManifest loads a session directory's manifest.
func ReadManifest(dir string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("wal: %s: bad manifest: %v", dir, err)
	}
	if m.Log == "" {
		return m, fmt.Errorf("wal: %s: manifest names no log", dir)
	}
	return m, nil
}

// WriteManifest atomically replaces a session directory's manifest: the new
// contents are written to a temp file, fsynced, renamed over ManifestName,
// and the directory is fsynced so the rename survives a crash.
func WriteManifest(dir string, m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return WriteFileAtomic(filepath.Join(dir, ManifestName), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// WriteFileAtomic writes a file via the temp-fsync-rename dance: after a
// crash, path holds either its previous contents or the complete new ones.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		tmp = nil
		return err
	}
	name := tmp.Name()
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return syncDir(dir)
}
