// Package store is crskyd's crash-safe on-disk dataset store: checksummed,
// versioned snapshot files plus a write-ahead log of register/remove and
// object insert/delete operations, with a recovery path that replays the
// WAL over the latest snapshots, quarantines anything that fails its
// checksum into corrupt/, and keeps serving the healthy datasets.
//
// An object mutation commits at its WAL append alone, so a write costs
// O(mutation) however large the dataset: the mutation reaches a snapshot
// only at compaction or at the next Open's re-checkpoint, and until then
// recovery replays its WAL record over the older snapshot.
//
// On-disk layout under the data directory:
//
//	wal.log              write-ahead log (commit point of every operation)
//	datasets/<name>.snap one checksummed snapshot per live dataset
//	corrupt/             quarantined files that failed verification
//
// The integrity discipline mirrors the engines' verify-everything stance:
// a bit-flipped sample weight yields confidently wrong causality answers,
// so every byte read at recovery is covered by a CRC32C that is checked,
// never assumed.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"net/url"
	"strings"
)

const (
	// snapMagic/walMagic lead every store file so foreign or truncated
	// files are rejected before any decoding.
	snapMagic = "CRSNAP01"
	walMagic  = "CRWAL001"

	// formatVersion is bumped on incompatible layout changes; readers
	// reject versions they do not understand instead of misparsing.
	formatVersion = 1

	// maxSectionLen bounds a declared section/record length so a corrupt
	// header cannot drive a multi-gigabyte allocation.
	maxSectionLen = 1 << 31
)

// castagnoli is the CRC32C polynomial — hardware-accelerated on amd64 and
// the de-facto standard for storage checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// snapMeta is the header section of a snapshot file.
type snapMeta struct {
	Name  string
	Model string
	// Seq is the WAL sequence number of the operation this snapshot
	// checkpoints; replay applies only records newer than it.
	Seq uint64
}

// Snapshot section kinds.
const (
	secMeta = 1
	secData = 2
	// secMuts carries the gob-encoded mutation log folded over the base
	// payload. The section is written only when the log is non-empty, so
	// snapshots of unmutated datasets keep the original two-section layout
	// and pre-mutation readers (which ignore unknown kinds) stay compatible
	// — no format version bump.
	secMuts = 3
)

// encodeSnapshot renders a snapshot file: magic, version, then
// length+CRC32C-framed sections (gob meta, raw payload, and — when any
// exist — the gob mutation log). Each section is independently
// checksummed so verification pinpoints what rotted.
func encodeSnapshot(meta snapMeta, data []byte, muts []Mutation) ([]byte, error) {
	var mbuf bytes.Buffer
	if err := gob.NewEncoder(&mbuf).Encode(meta); err != nil {
		return nil, fmt.Errorf("store: encode snapshot meta: %w", err)
	}
	var xbuf bytes.Buffer
	nsec := uint32(2)
	if len(muts) > 0 {
		if err := gob.NewEncoder(&xbuf).Encode(muts); err != nil {
			return nil, fmt.Errorf("store: encode snapshot mutations: %w", err)
		}
		nsec = 3
	}
	var b bytes.Buffer
	b.WriteString(snapMagic)
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], formatVersion)
	b.Write(u32[:])
	binary.BigEndian.PutUint32(u32[:], nsec)
	b.Write(u32[:])
	writeSection(&b, secMeta, mbuf.Bytes())
	writeSection(&b, secData, data)
	if len(muts) > 0 {
		writeSection(&b, secMuts, xbuf.Bytes())
	}
	return b.Bytes(), nil
}

func writeSection(b *bytes.Buffer, kind uint32, payload []byte) {
	var u32 [4]byte
	var u64 [8]byte
	binary.BigEndian.PutUint32(u32[:], kind)
	b.Write(u32[:])
	binary.BigEndian.PutUint64(u64[:], uint64(len(payload)))
	b.Write(u64[:])
	binary.BigEndian.PutUint32(u32[:], checksum(payload))
	b.Write(u32[:])
	b.Write(payload)
}

// decodeSnapshot verifies and parses an encodeSnapshot file. Any framing,
// version, or checksum failure is an error — the caller quarantines. The
// returned mutation log is nil for two-section files.
func decodeSnapshot(b []byte) (snapMeta, []byte, []Mutation, error) {
	var meta snapMeta
	if len(b) < len(snapMagic)+8 {
		return meta, nil, nil, fmt.Errorf("store: snapshot truncated (%d bytes)", len(b))
	}
	if string(b[:len(snapMagic)]) != snapMagic {
		return meta, nil, nil, fmt.Errorf("store: bad snapshot magic %q", b[:len(snapMagic)])
	}
	off := len(snapMagic)
	ver := binary.BigEndian.Uint32(b[off:])
	if ver != formatVersion {
		return meta, nil, nil, fmt.Errorf("store: unsupported snapshot version %d", ver)
	}
	nsec := binary.BigEndian.Uint32(b[off+4:])
	off += 8
	var metaB, dataB, mutsB []byte
	var haveMeta, haveData, haveMuts bool
	for i := uint32(0); i < nsec; i++ {
		if off+16 > len(b) {
			return meta, nil, nil, fmt.Errorf("store: snapshot section %d header truncated", i)
		}
		kind := binary.BigEndian.Uint32(b[off:])
		ln := binary.BigEndian.Uint64(b[off+4:])
		crc := binary.BigEndian.Uint32(b[off+12:])
		off += 16
		if ln > maxSectionLen || uint64(off)+ln > uint64(len(b)) {
			return meta, nil, nil, fmt.Errorf("store: snapshot section %d truncated (declared %d bytes)", i, ln)
		}
		payload := b[off : off+int(ln)]
		off += int(ln)
		if checksum(payload) != crc {
			return meta, nil, nil, fmt.Errorf("store: snapshot section %d checksum mismatch", i)
		}
		switch kind {
		case secMeta:
			metaB, haveMeta = payload, true
		case secData:
			dataB, haveData = payload, true
		case secMuts:
			mutsB, haveMuts = payload, true
		}
	}
	if off != len(b) {
		return meta, nil, nil, fmt.Errorf("store: %d trailing bytes after snapshot sections", len(b)-off)
	}
	if !haveMeta || !haveData {
		return meta, nil, nil, fmt.Errorf("store: snapshot missing meta or data section")
	}
	if err := gob.NewDecoder(bytes.NewReader(metaB)).Decode(&meta); err != nil {
		return meta, nil, nil, fmt.Errorf("store: decode snapshot meta: %w", err)
	}
	if meta.Name == "" {
		return meta, nil, nil, fmt.Errorf("store: snapshot has empty dataset name")
	}
	var muts []Mutation
	if haveMuts {
		if err := gob.NewDecoder(bytes.NewReader(mutsB)).Decode(&muts); err != nil {
			return meta, nil, nil, fmt.Errorf("store: decode snapshot mutations: %w", err)
		}
		for i, m := range muts {
			if err := m.validate(); err != nil {
				return meta, nil, nil, fmt.Errorf("store: snapshot mutation %d: %w", i, err)
			}
		}
	}
	return meta, dataB, muts, nil
}

// escapeName maps an arbitrary dataset name to a safe file stem
// (percent-encoding path separators and friends) and back. Names that
// would escape to "." or ".." get their dots percent-encoded too, so a
// hostile name can never traverse out of datasets/.
func escapeName(name string) string {
	esc := url.PathEscape(name)
	if strings.Trim(esc, ".") == "" {
		esc = strings.ReplaceAll(esc, ".", "%2E")
	}
	return esc
}

func unescapeName(stem string) (string, error) { return url.PathUnescape(stem) }
