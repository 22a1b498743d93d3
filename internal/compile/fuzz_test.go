package compile

import (
	"bytes"
	"errors"
	"reflect"
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
	s, err := Compile(chainDB(f, 256), 4, 0, 0, nil)
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

// FuzzLoadSnapshot fuzzes the core blob a durable session reads back from
// disk, against the database and shard files it was spilled with:
// LoadSnapshot never panics, fails only with *CodecError, and a blob it
// accepts re-encodes bit for bit.
func FuzzLoadSnapshot(f *testing.F) {
	db := chainDB(f, 256)
	s, err := Compile(db, 4, 0, 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	files := writeShardFiles(f, s, f.TempDir())
	core := s.EncodeCore()
	f.Add(core, false)
	f.Add(core[codecHeaderLen:], true)
	f.Add([]byte(coreMagic), false)
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal {
			data = seal(coreMagic, data)
		}
		got, err := LoadSnapshot(db, data, files, 0)
		if err != nil {
			requireCodecError(t, err)
			return
		}
		if !bytes.Equal(got.EncodeCore(), data) {
			t.Fatal("re-encoding a loaded core changed its bytes")
		}
	})
}
