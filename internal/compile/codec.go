// Shard and snapshot-core codecs: versioned, checksummed binary
// serialization of one Shard (the unit a durable session spills) and of a
// snapshot's shard-independent core (label universe, global position table,
// shard geometry). A shard file is self-contained — it carries the shard's
// slice of the global tables as owned arrays, so decoding never needs the
// snapshot it came from — which is what lets LoadSnapshot check every shard
// against the core before trusting it.
//
// Both formats are little-endian with an 8-byte version magic followed by a
// CRC-32C (Castagnoli) of the payload, like the write-ahead log's frames: a
// truncated or bit-flipped file is detected before any of it is trusted.
// Encoding is deterministic (no maps are walked), so equal shards encode to
// equal bytes — the round-trip property tests pin this.
package compile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sync/atomic"

	"schemex/internal/bitset"
	"schemex/internal/graph"
)

// shardMagic / coreMagic version the two on-disk formats; bump the trailing
// digits on any layout change so stale files are refused, not misread.
const (
	shardMagic = "SXSHRD02"
	coreMagic  = "SXCORE02"
)

// codecHeaderLen is the fixed prefix of both formats: magic plus payload
// checksum.
const codecHeaderLen = 8 + 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CodecError reports a shard or core file that failed validation: wrong
// magic (File names the expected format), a checksum mismatch, or a length
// inconsistency between header counts and payload size.
type CodecError struct {
	Format string // "shard" or "core"
	Reason string
}

func (e *CodecError) Error() string {
	return fmt.Sprintf("compile: bad %s encoding: %s", e.Format, e.Reason)
}

// enc is a little-endian append-only writer over a preallocated buffer.
type enc struct{ b []byte }

func (e *enc) u32(v uint32) {
	e.b = binary.LittleEndian.AppendUint32(e.b, v)
}

func (e *enc) u64(v uint64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
}

func (e *enc) i32s(v []int32) {
	for _, x := range v {
		e.u32(uint32(x))
	}
}

func (e *enc) bytes(v []byte) { e.b = append(e.b, v...) }

// dec is the matching reader; out-of-bounds reads flip err instead of
// panicking so corrupt length fields surface as *CodecError.
type dec struct {
	b   []byte
	off int
	err bool
}

func (d *dec) u32() uint32 {
	if d.off+4 > len(d.b) {
		d.err = true
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.off+8 > len(d.b) {
		d.err = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// count reads a u32 length field that will size an allocation: anything that
// cannot fit in the remaining payload (at min bytes per element) is corrupt,
// so a bit-flipped length can never trigger a giant allocation.
func (d *dec) count(min int) int {
	n := int(d.u32())
	if n < 0 || (min > 0 && n > (len(d.b)-d.off)/min) {
		d.err = true
		return 0
	}
	return n
}

func (d *dec) i32s(n int) []int32 {
	if n < 0 || d.off+4*n > len(d.b) {
		d.err = true
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(d.b[d.off+4*i:]))
	}
	d.off += 4 * n
	return out
}

func (d *dec) bytes(n int) []byte {
	if n < 0 || d.off+n > len(d.b) {
		d.err = true
		return nil
	}
	out := make([]byte, n)
	copy(out, d.b[d.off:])
	d.off += n
	return out
}

// seal prepends the magic and payload checksum to an encoded payload.
func seal(magic string, payload []byte) []byte {
	out := make([]byte, 0, codecHeaderLen+len(payload))
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// unseal validates the magic and checksum and returns the payload.
func unseal(format, magic string, data []byte) ([]byte, error) {
	if len(data) < codecHeaderLen {
		return nil, &CodecError{format, "truncated header"}
	}
	if string(data[:8]) != magic {
		return nil, &CodecError{format, fmt.Sprintf("bad magic %q (want %q)", data[:8], magic)}
	}
	payload := data[codecHeaderLen:]
	want := binary.LittleEndian.Uint32(data[8:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, &CodecError{format, fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", want, got)}
	}
	return payload, nil
}

// EncodeShard serializes one shard, including its slice of the snapshot's
// global tables, into the versioned checksummed shard format. The result is
// self-contained: DecodeShard reconstructs the shard with owned arrays.
func EncodeShard(sh *Shard) []byte {
	size := 6*4 + // base, n, posBase, posN, nOut, nIn
		4*(len(sh.OutOff)+len(sh.InOff)+len(sh.OutTo)+len(sh.OutLab)+
			len(sh.InFrom)+len(sh.InLab)+len(sh.Pos)+len(sh.Complex))
	e := enc{b: make([]byte, 0, size)}
	e.u32(uint32(sh.Base))
	e.u32(uint32(sh.N))
	e.u32(uint32(sh.PosBase))
	e.u32(uint32(sh.PosN))
	e.u32(uint32(len(sh.OutTo)))
	e.u32(uint32(len(sh.InFrom)))
	e.i32s(sh.OutOff)
	e.i32s(sh.InOff)
	e.i32s(sh.OutTo)
	e.i32s(sh.OutLab)
	e.i32s(sh.InFrom)
	e.i32s(sh.InLab)
	e.i32s(sh.Pos)
	e.i32s(complexToInt32(sh.Complex))
	return seal(shardMagic, e.b)
}

// DecodeShard reconstructs a shard from EncodeShard's output. Every array is
// freshly allocated and owned by the result: the decoded shard's table views
// are value-equal copies of the snapshot slices the encoder saw. LoadSnapshot
// checks them against the core's tables and rebinds them there.
func DecodeShard(data []byte) (*Shard, error) {
	payload, err := unseal("shard", shardMagic, data)
	if err != nil {
		return nil, err
	}
	d := dec{b: payload}
	sh := &Shard{
		Base:    int(d.u32()),
		N:       int(d.count(0)),
		PosBase: int(d.u32()),
		PosN:    int(d.count(0)),
	}
	nOut := d.count(0)
	nIn := d.count(0)
	// Exact-size check: the six counts fully determine the payload length.
	want := 6*4 + 4*(2*(sh.N+1)+2*nOut+2*nIn+sh.N+sh.PosN)
	if d.err || want != len(payload) {
		return nil, &CodecError{"shard", "length fields inconsistent with payload size"}
	}
	sh.OutOff = d.i32s(sh.N + 1)
	sh.InOff = d.i32s(sh.N + 1)
	sh.OutTo = d.i32s(nOut)
	sh.OutLab = d.i32s(nOut)
	sh.InFrom = d.i32s(nIn)
	sh.InLab = d.i32s(nIn)
	sh.Pos = d.i32s(sh.N)
	sh.Complex = int32ToComplex(d.i32s(sh.PosN))
	if d.err || int(sh.OutOff[sh.N]) != nOut || int(sh.InOff[sh.N]) != nIn {
		return nil, &CodecError{"shard", "offset totals inconsistent with edge counts"}
	}
	return sh, nil
}

func complexToInt32(v []graph.ObjectID) []int32 {
	out := make([]int32, len(v))
	for i, o := range v {
		out[i] = int32(o)
	}
	return out
}

func int32ToComplex(v []int32) []graph.ObjectID {
	out := make([]graph.ObjectID, len(v))
	for i, o := range v {
		out[i] = graph.ObjectID(o)
	}
	return out
}

// EncodeCore serializes everything of the snapshot except the shard CSR
// blocks: the label universe, the global position table, the shard
// geometry, and per-shard metadata (position range and edge counts) that
// LoadSnapshot checks every shard file against, so its size is O(objects +
// labels + shards). The atomic bitset and the Complex table are not written
// — both are pure functions of Pos (Pos[o] == -1 exactly for atomic objects,
// and Complex lists the rest in ID order), so LoadSnapshot rebuilds them
// bit-identically.
func (s *Snapshot) EncodeCore() []byte {
	e := enc{}
	e.u32(uint32(s.shardShift))
	e.u64(uint64(s.nLinks))
	e.u32(uint32(s.NumObjects()))
	e.u32(uint32(len(s.Labels)))
	for _, l := range s.Labels {
		e.u32(uint32(len(l)))
		e.bytes([]byte(l))
	}
	e.i32s(s.Pos)
	e.u32(uint32(len(s.shards)))
	for _, sh := range s.shards {
		e.u32(uint32(sh.PosBase))
		e.u32(uint32(sh.PosN))
		e.u32(uint32(len(sh.OutTo)))
		e.u32(uint32(len(sh.InFrom)))
	}
	return seal(coreMagic, e.b)
}

// shardLoads counts the shard files LoadSnapshot has read and accepted,
// process-wide.
var shardLoads atomic.Uint64

// ShardsLoaded reports how many shard files LoadSnapshot has read and
// accepted in this process: the shards recovered durable sessions brought
// back from disk.
func ShardsLoaded() uint64 { return shardLoads.Load() }

// shardMeta is the core's record of one shard: its complex-position range
// and edge counts.
type shardMeta struct {
	posBase, posN int
	nOut, nIn     int
}

// LoadSnapshot reconstructs a snapshot of db from an EncodeCore blob and one
// shard file per shard, written by EncodeShard (ShardBytes), in shard order.
// Every shard file is read, decoded and checked against the core before the
// snapshot is returned (see checkShard), and its table views are rebound onto
// the core's tables, so the result is laid out exactly as Compile lays it
// out. A malformed core or shard, or one that disagrees with the other, is a
// *CodecError; a file that cannot be read is returned as the read error.
//
// The db must be the same instance the encoded snapshot was compiled from
// (or a value-identical reconstruction, e.g. the graph text the serving
// layer spills beside the shard files); object and label counts are
// cross-checked, deeper disagreement is undetectable here and yields
// garbage extractions, exactly like mutating a db under a live snapshot.
func LoadSnapshot(db *graph.DB, core []byte, shardFiles []string) (*Snapshot, error) {
	payload, err := unseal("core", coreMagic, core)
	if err != nil {
		return nil, err
	}
	db.Freeze()
	d := dec{b: payload}
	s := &Snapshot{db: db, shardShift: uint(d.u32()), nLinks: int(d.u64())}
	// Counts that size allocations use positive per-element minima so a
	// corrupt length (valid CRC, untrusted source) fails as a CodecError
	// instead of attempting a multi-gigabyte make: every object costs at
	// least its 4 payload bytes of Pos, every label at least its 4-byte
	// length field.
	n := d.count(4)
	nLab := d.count(4)
	if d.err {
		return nil, &CodecError{"core", "truncated header"}
	}
	if n != db.NumObjects() {
		return nil, &CodecError{"core", fmt.Sprintf("object count %d does not match database (%d)", n, db.NumObjects())}
	}
	s.Labels = make([]string, nLab)
	for i := range s.Labels {
		s.Labels[i] = string(d.bytes(d.count(1)))
	}
	s.Pos = d.i32s(n)
	nSh := d.count(16) // each shard carries 16 bytes of meta below
	if d.err || s.shardShift < minShardShift || s.shardShift > maxShardShift || nSh != numShards(n, s.shardShift) {
		return nil, &CodecError{"core", "shard count inconsistent with object count"}
	}
	if len(shardFiles) != nSh {
		return nil, &CodecError{"core", fmt.Sprintf("%d shard files for %d shards", len(shardFiles), nSh)}
	}
	metas := make([]shardMeta, nSh)
	for si := range metas {
		metas[si] = shardMeta{
			posBase: int(d.u32()), posN: int(d.count(0)),
			nOut: int(d.count(0)), nIn: int(d.count(0)),
		}
	}
	if d.err || d.off != len(payload) {
		return nil, &CodecError{"core", "length fields inconsistent with payload size"}
	}

	// Rebuild the derived tables and intern map from Pos.
	s.Atomic = bitsetFromPos(s.Pos)
	for i, p := range s.Pos {
		switch {
		case p >= 0:
			if int(p) != len(s.Complex) {
				return nil, &CodecError{"core", "position table is not dense in ID order"}
			}
			s.Complex = append(s.Complex, graph.ObjectID(i))
		case p != -1:
			return nil, &CodecError{"core", fmt.Sprintf("object %d has position %d", i, p)}
		}
	}
	s.labelID = make(map[string]int, len(s.Labels))
	for i, l := range s.Labels {
		s.labelID[l] = i
	}
	// The shard records must chain the position ranges Pos implies, and
	// their edge counts must sum to the link count.
	posNext, nOut, nIn := 0, 0, 0
	for si, m := range metas {
		base := si << s.shardShift
		posN := 0
		for _, p := range s.Pos[base:min(base+1<<s.shardShift, n)] {
			if p >= 0 {
				posN++
			}
		}
		if m.posBase != posNext || m.posN != posN {
			return nil, &CodecError{"core", fmt.Sprintf("shard %d position range inconsistent with the position table", si)}
		}
		posNext += posN
		nOut += m.nOut
		nIn += m.nIn
	}
	if nOut != s.nLinks || nIn != s.nLinks {
		return nil, &CodecError{"core", "shard edge counts do not sum to the link count"}
	}

	s.shards = make([]*Shard, nSh)
	for si, file := range shardFiles {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("compile: reading shard %d: %w", si, err)
		}
		sh, err := DecodeShard(data)
		if err != nil {
			return nil, err
		}
		if err := s.checkShard(sh, si, metas[si]); err != nil {
			return nil, err
		}
		s.shards[si] = sh.reslice(s)
	}
	shardLoads.Add(uint64(nSh))
	return s, nil
}

// checkShard verifies decoded shard si against the loaded core before it is
// trusted: its geometry (Base, N, position range, edge counts) must equal the
// core's, its Pos/Complex must equal the core's tables over its
// ranges, its offsets must ascend from zero, and every edge must name an
// in-range object and label. Any mismatch is a *CodecError.
func (s *Snapshot) checkShard(sh *Shard, si int, m shardMeta) error {
	bad := func(reason string) error {
		return &CodecError{"shard", fmt.Sprintf("shard %d: %s", si, reason)}
	}
	base := si << s.shardShift
	n := min(1<<s.shardShift, s.NumObjects()-base)
	if sh.Base != base || sh.N != n || sh.PosBase != m.posBase || sh.PosN != m.posN ||
		len(sh.OutTo) != m.nOut || len(sh.InFrom) != m.nIn {
		return bad("geometry differs from the core")
	}
	if !slices.Equal(sh.Pos, s.Pos[base:base+n]) ||
		!slices.Equal(sh.Complex, s.Complex[m.posBase:m.posBase+m.posN]) {
		return bad("tables differ from the core")
	}
	for _, off := range [][]int32{sh.OutOff, sh.InOff} {
		if off[0] != 0 {
			return bad("offsets do not start at zero")
		}
		for i := 0; i < n; i++ {
			if off[i] > off[i+1] {
				return bad("offsets do not ascend")
			}
		}
	}
	nObj := int32(s.NumObjects())
	for _, ends := range [][]int32{sh.OutTo, sh.InFrom} {
		for _, o := range ends {
			if o < 0 || o >= nObj {
				return bad("edge names an object out of range")
			}
		}
	}
	nLab := int32(len(s.Labels))
	for _, labs := range [][]int32{sh.OutLab, sh.InLab} {
		for _, l := range labs {
			if l < 0 || l >= nLab {
				return bad("edge names a label out of range")
			}
		}
	}
	return nil
}

// bitsetFromPos rebuilds the atomic bitset from the position table:
// Pos[o] == -1 exactly for atomic objects.
func bitsetFromPos(pos []int32) *bitset.Set {
	b := bitset.New(len(pos))
	for i, p := range pos {
		if p < 0 {
			b.Set(i)
		}
	}
	return b
}

// ShardBytes returns shard si in the encoded shard format. The serving
// layer's shard-granular spill writes these blobs next to an EncodeCore
// blob; LoadSnapshot reads them back.
func (s *Snapshot) ShardBytes(si int) []byte { return EncodeShard(s.shards[si]) }
