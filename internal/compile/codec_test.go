package compile

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"schemex/internal/dbg"
	"schemex/internal/graph"
)

// codecDBs are the graphs the codec properties run over: the paper's DBG
// shape plus a multi-shard chain.
func codecDBs(t *testing.T) map[string]*graph.DB {
	t.Helper()
	dbgDB, _ := dbg.Generate(dbg.Options{})
	return map[string]*graph.DB{"dbg": dbgDB, "chain256": chainDB(t, 256)}
}

// TestShardCodecRoundTrip pins the shard codec property: decode(encode(sh))
// is value-identical to sh, and re-encoding the decoded shard reproduces the
// original bytes bit for bit, for every shard of every layout.
func TestShardCodecRoundTrip(t *testing.T) {
	for name, db := range codecDBs(t) {
		for _, shards := range []int{1, 4, 0} {
			s, err := Compile(db, shards, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			for si := 0; si < s.NumShards(); si++ {
				sh := s.Shard(si)
				blob := EncodeShard(sh)
				got, err := DecodeShard(blob)
				if err != nil {
					t.Fatalf("%s shards=%d shard %d: %v", name, shards, si, err)
				}
				if !reflect.DeepEqual(got, sh) {
					t.Fatalf("%s shards=%d shard %d: decoded shard differs", name, shards, si)
				}
				if blob2 := EncodeShard(got); !reflect.DeepEqual(blob2, blob) {
					t.Fatalf("%s shards=%d shard %d: re-encode not bit-identical", name, shards, si)
				}
			}
		}
	}
}

// TestShardCodecRejectsCorruption: wrong magic, any flipped payload byte,
// truncation, and inconsistent length fields all surface as *CodecError.
func TestShardCodecRejectsCorruption(t *testing.T) {
	s, err := Compile(chainDB(t, 256), 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob := EncodeShard(s.Shard(1))

	wantErr := func(t *testing.T, data []byte) {
		t.Helper()
		if _, err := DecodeShard(data); err == nil {
			t.Fatal("corrupt shard decoded without error")
		} else if _, ok := err.(*CodecError); !ok {
			t.Fatalf("error type = %T, want *CodecError", err)
		}
	}
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 7, codecHeaderLen, len(blob) - 1} {
			wantErr(t, blob[:n])
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte("SXNOPE99"), blob[8:]...)
		wantErr(t, bad)
	})
	t.Run("bit-flips", func(t *testing.T) {
		// Every byte position matters: header flips fail the magic or
		// checksum, payload flips fail the checksum.
		for i := 0; i < len(blob); i += 7 {
			bad := append([]byte(nil), blob...)
			bad[i] ^= 0x40
			wantErr(t, bad)
		}
	})
	t.Run("appended-garbage", func(t *testing.T) {
		wantErr(t, append(append([]byte(nil), blob...), 0xff))
	})
}

// writeShardFiles spills every shard of s into dir and returns the paths, in
// shard order — the shape the serving layer's shard-granular spill produces.
func writeShardFiles(t testing.TB, s *Snapshot, dir string) []string {
	t.Helper()
	files := make([]string, s.NumShards())
	for si := range files {
		files[si] = filepath.Join(dir, fmt.Sprintf("shard-%d.shard", si))
		if err := os.WriteFile(files[si], s.ShardBytes(si), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestCoreCodecRoundTrip pins the full spill round trip: EncodeCore +
// per-shard files + LoadSnapshot reconstruct a snapshot bit-identical to the
// original (via the flattened view), laid out like a compiled one, whose core
// re-encodes to the same bytes.
func TestCoreCodecRoundTrip(t *testing.T) {
	for name, db := range codecDBs(t) {
		for _, shards := range []int{1, 4, 0} {
			s, err := Compile(db, shards, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			core := s.EncodeCore()
			files := writeShardFiles(t, s, t.TempDir())
			got, err := LoadSnapshot(db, core, files)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			snapEqual(t, got, s, fmt.Sprintf("%s shards=%d", name, shards))
			checkShardInvariants(t, got)
			if !reflect.DeepEqual(got.EncodeCore(), core) {
				t.Fatalf("%s shards=%d: core re-encode not bit-identical", name, shards)
			}
		}
	}
}

// TestCoreCodecRejectsMismatch: a core blob loaded against the wrong
// database, with the wrong shard-file count, or corrupted, is refused.
func TestCoreCodecRejectsMismatch(t *testing.T) {
	db := chainDB(t, 256)
	s, err := Compile(db, 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	core := s.EncodeCore()
	files := writeShardFiles(t, s, t.TempDir())

	if _, err := LoadSnapshot(chainDB(t, 128), core, files[:2]); err == nil {
		t.Fatal("wrong database accepted")
	}
	if _, err := LoadSnapshot(db, core, files[:2]); err == nil {
		t.Fatal("wrong shard-file count accepted")
	}
	bad := append([]byte(nil), core...)
	bad[len(bad)-3] ^= 1
	if _, err := LoadSnapshot(db, bad, files); err == nil {
		t.Fatal("corrupt core accepted")
	}
}

// TestLoadSnapshotRejectsBadShardFiles: LoadSnapshot reads and checks every
// shard file, so a missing file, a truncated one, and a validly sealed copy
// of another shard's file are all refused at load time — the last two as
// *CodecError — instead of being adopted.
func TestLoadSnapshotRejectsBadShardFiles(t *testing.T) {
	db := chainDB(t, 256)
	s, err := Compile(db, 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	core := s.EncodeCore()
	for _, tc := range []struct {
		name  string
		spoil func(files []string) error
		typed bool
	}{
		{"missing", func(files []string) error { return os.Remove(files[2]) }, false},
		{"truncated", func(files []string) error { return os.Truncate(files[2], 10) }, true},
		{"other-shard", func(files []string) error {
			return os.WriteFile(files[2], s.ShardBytes(1), 0o644)
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			files := writeShardFiles(t, s, t.TempDir())
			if err := tc.spoil(files); err != nil {
				t.Fatal(err)
			}
			got, err := LoadSnapshot(db, core, files)
			if err == nil {
				t.Fatalf("loaded a snapshot over a bad shard file (%d shards)", got.NumShards())
			}
			if tc.typed {
				requireCodecError(t, err)
			} else if !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("missing shard file: error %v, want fs.ErrNotExist", err)
			}
		})
	}
}
