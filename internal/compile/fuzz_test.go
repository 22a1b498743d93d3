package compile

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// requireCodecError fails unless err is a *CodecError: every way a spill
// blob can be malformed must surface as that typed error.
func requireCodecError(t *testing.T, err error) {
	t.Helper()
	var ce *CodecError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *CodecError: %v", err, err)
	}
}

// FuzzDecodeShard: DecodeShard never panics on bytes read from disk, fails
// only with *CodecError, and round-trips everything it accepts — re-encoding
// reproduces the input bit for bit and decodes to an equal shard. With
// reseal set the fuzzed bytes are the payload and get a valid header and
// checksum, so the length checks rather than the CRC face the input.
func FuzzDecodeShard(f *testing.F) {
	s, err := Compile(chainDB(f, 256), 4, 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	for si := 0; si < s.NumShards(); si++ {
		blob := EncodeShard(s.Shard(si))
		f.Add(blob, false)
		f.Add(blob[codecHeaderLen:], true)
	}
	f.Add([]byte(shardMagic), false)
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal {
			data = seal(shardMagic, data)
		}
		sh, err := DecodeShard(data)
		if err != nil {
			requireCodecError(t, err)
			return
		}
		again := EncodeShard(sh)
		if !bytes.Equal(again, data) {
			t.Fatal("re-encoding a decoded shard changed its bytes")
		}
		back, err := DecodeShard(again)
		if err != nil || !reflect.DeepEqual(back, sh) {
			t.Fatalf("decode(encode(shard)) differs (err %v)", err)
		}
	})
}

// FuzzLoadSnapshot fuzzes what a durable session reads back from disk: the
// core blob and one of its shard files, against the database and the other
// shard files they were spilled with. The fuzzed shard bytes are a payload
// that gets a valid header and checksum, so LoadSnapshot's checks of a shard
// against the core, not the CRC, face them. LoadSnapshot never panics, fails
// only with *CodecError, and a snapshot it accepts re-encodes its core and
// the fuzzed shard bit for bit.
func FuzzLoadSnapshot(f *testing.F) {
	db := chainDB(f, 256)
	s, err := Compile(db, 4, 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	files := writeShardFiles(f, s, dir)
	fuzzed := filepath.Join(dir, "fuzzed.shard")
	core := s.EncodeCore()
	payload := func(si int) []byte { return s.ShardBytes(si)[codecHeaderLen:] }
	f.Add(core, false, uint8(0), payload(0))
	f.Add(core[codecHeaderLen:], true, uint8(1), payload(1))
	f.Add([]byte(coreMagic), false, uint8(2), payload(2))
	for si := 1; si < s.NumShards(); si++ {
		f.Add(core, false, uint8(si), payload(si))
		f.Add(core, false, uint8(si), payload(si-1))
	}
	f.Fuzz(func(t *testing.T, data []byte, reseal bool, which uint8, shard []byte) {
		if reseal {
			data = seal(coreMagic, data)
		}
		si := int(which) % len(files)
		sealed := seal(shardMagic, shard)
		if err := os.WriteFile(fuzzed, sealed, 0o644); err != nil {
			t.Fatal(err)
		}
		spill := slices.Clone(files)
		spill[si] = fuzzed
		got, err := LoadSnapshot(db, data, spill)
		if err != nil {
			requireCodecError(t, err)
			return
		}
		if !bytes.Equal(got.EncodeCore(), data) {
			t.Fatal("re-encoding a loaded core changed its bytes")
		}
		if !bytes.Equal(got.ShardBytes(si), sealed) {
			t.Fatal("re-encoding a loaded shard changed its bytes")
		}
	})
}
