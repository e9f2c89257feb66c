package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// SnapshotStatus is one snapshot file's verification result.
type SnapshotStatus struct {
	File    string `json:"file"`
	Dataset string `json:"dataset,omitempty"`
	Model   string `json:"model,omitempty"`
	Seq     uint64 `json:"seq,omitempty"`
	// Muts counts mutation-log entries checkpointed in the snapshot.
	Muts  int    `json:"muts,omitempty"`
	Bytes int64  `json:"bytes"`
	OK    bool   `json:"ok"`
	Err   string `json:"err,omitempty"`
}

// FsckReport is the result of a verify (and optionally repair) pass.
type FsckReport struct {
	Dir       string           `json:"dir"`
	Snapshots []SnapshotStatus `json:"snapshots"`
	TempFiles []string         `json:"tempFiles,omitempty"`

	WALBytes   int64 `json:"walBytes"`
	WALRecords int   `json:"walRecords"`
	// WALMutations counts insert/delete records among WALRecords.
	WALMutations int    `json:"walMutations,omitempty"`
	WALTorn      bool   `json:"walTorn"`
	WALTornAt    int64  `json:"walTornAt,omitempty"`
	WALErr       string `json:"walErr,omitempty"`

	// Repaired is set when the pass ran in repair mode: corrupt
	// snapshots quarantined, torn WAL truncated, state re-checkpointed,
	// WAL compacted.
	Repaired    bool          `json:"repaired"`
	Quarantined []CorruptFile `json:"quarantined,omitempty"`
	// Datasets are the dataset names that verify clean (after repair,
	// the names the daemon would serve).
	Datasets []string `json:"datasets"`
}

// Healthy reports whether the verify pass found nothing wrong.
func (r *FsckReport) Healthy() bool {
	if r.WALTorn || r.WALErr != "" || len(r.TempFiles) > 0 {
		return false
	}
	for _, s := range r.Snapshots {
		if !s.OK {
			return false
		}
	}
	return true
}

// Format renders the report for humans (the crskyd fsck output).
func (r *FsckReport) Format(w io.Writer) {
	fmt.Fprintf(w, "store %s\n", r.Dir)
	for _, s := range r.Snapshots {
		if s.OK {
			fmt.Fprintf(w, "  snapshot %-30s OK    %8d bytes  dataset=%s model=%s seq=%d muts=%d\n",
				s.File, s.Bytes, s.Dataset, s.Model, s.Seq, s.Muts)
		} else {
			fmt.Fprintf(w, "  snapshot %-30s BAD   %8d bytes  %s\n", s.File, s.Bytes, s.Err)
		}
	}
	for _, t := range r.TempFiles {
		fmt.Fprintf(w, "  leftover temp file %s\n", t)
	}
	switch {
	case r.WALErr != "":
		fmt.Fprintf(w, "  wal %d bytes: CORRUPT HEADER: %s\n", r.WALBytes, r.WALErr)
	case r.WALTorn:
		fmt.Fprintf(w, "  wal %d bytes, %d records (%d mutations), TORN TAIL at offset %d\n",
			r.WALBytes, r.WALRecords, r.WALMutations, r.WALTornAt)
	default:
		fmt.Fprintf(w, "  wal %d bytes, %d records (%d mutations), clean\n",
			r.WALBytes, r.WALRecords, r.WALMutations)
	}
	for _, q := range r.Quarantined {
		fmt.Fprintf(w, "  quarantined %s (%s)\n", q.Path, q.Reason)
	}
	if r.Repaired {
		fmt.Fprintf(w, "  repaired: serving %d datasets: %s\n", len(r.Datasets), strings.Join(r.Datasets, ", "))
	} else if r.Healthy() {
		fmt.Fprintf(w, "  healthy: %d datasets: %s\n", len(r.Datasets), strings.Join(r.Datasets, ", "))
	} else {
		fmt.Fprintf(w, "  UNHEALTHY (rerun with -repair to quarantine and recover)\n")
	}
}

// Fsck verifies a store directory: re-derives every snapshot checksum,
// dry-replays the WAL, and reports torn tails, corrupt files, and
// leftover temp debris. With repair set it then runs the full recovery
// path (quarantine, truncate, re-checkpoint) and compacts the WAL, so a
// subsequent verify is clean. fsys may be nil for the OS filesystem.
func Fsck(fsys FS, dir string, repair bool) (*FsckReport, error) {
	if fsys == nil {
		fsys = OS
	}
	rep := &FsckReport{Dir: dir}

	datasets := filepath.Join(dir, "datasets")
	names, err := fsys.ReadDir(datasets)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: fsck read %s: %w", datasets, err)
	}
	for _, fn := range names {
		path := filepath.Join(datasets, fn)
		if strings.HasSuffix(fn, ".tmp") {
			rep.TempFiles = append(rep.TempFiles, path)
			continue
		}
		if !strings.HasSuffix(fn, ".snap") {
			continue
		}
		st := SnapshotStatus{File: fn, Dataset: snapStemName(fn)}
		b, err := fsys.ReadFile(path)
		st.Bytes = int64(len(b))
		if err != nil {
			st.Err = err.Error()
		} else if meta, data, muts, derr := decodeSnapshot(b); derr != nil {
			st.Err = derr.Error()
		} else {
			st.OK = true
			st.Dataset, st.Model, st.Seq, st.Muts = meta.Name, meta.Model, meta.Seq, len(muts)
			_ = data
			rep.Datasets = append(rep.Datasets, meta.Name)
		}
		rep.Snapshots = append(rep.Snapshots, st)
	}

	walB, err := fsys.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: fsck read wal: %w", err)
	}
	rep.WALBytes = int64(len(walB))
	recs, goodLen, torn, werr := replayWAL(walB)
	if werr != nil {
		rep.WALErr = werr.Error()
	} else {
		rep.WALRecords = len(recs)
		for _, rec := range recs {
			if rec.Op == opInsert || rec.Op == opDelete {
				rep.WALMutations++
			}
		}
		rep.WALTorn = torn
		rep.WALTornAt = goodLen
	}

	if !repair {
		return rep, nil
	}

	// Repair = the daemon's own recovery path plus a compaction, so the
	// directory comes out fully checkpointed with a one-record WAL.
	s, orep, err := Open(dir, Options{Fsync: true, FS: fsys})
	if err != nil {
		return rep, fmt.Errorf("store: fsck repair: %w", err)
	}
	defer s.Close()
	if err := s.Compact(); err != nil {
		return rep, fmt.Errorf("store: fsck compact: %w", err)
	}
	rep.Repaired = true
	rep.Quarantined = orep.Quarantined
	rep.Datasets = orep.Datasets
	return rep, nil
}
