package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Options tunes a Store. The zero value is a safe default except Fsync,
// which callers should set explicitly (crskyd's -fsync flag defaults on).
type Options struct {
	// Fsync makes every WAL append and snapshot write a durability
	// barrier (fsync file, then fsync directory on renames). Off, writes
	// still order correctly but a power loss may drop acknowledged
	// operations — suitable for tests and throwaway deployments only.
	Fsync bool
	// CompactThreshold is the WAL size in bytes beyond which Put
	// auto-compacts (default 8 MiB; negative disables auto-compaction).
	CompactThreshold int64
	// FS overrides the filesystem (fault injection; default the OS).
	FS FS
}

// Dataset is one durable dataset: an opaque encoded payload plus the
// model tag the server uses to decode it, plus the ordered log of object
// mutations committed since the base payload was registered. The durable
// state is the base replayed through Muts in order; a re-register (Put)
// resets the log.
type Dataset struct {
	Name  string
	Model string
	Data  []byte
	// Muts is the ordered mutation log over Data, oldest first.
	Muts []Mutation
	// Seq is the WAL sequence of the operation that produced this state.
	Seq uint64
}

// CorruptFile describes one quarantined file.
type CorruptFile struct {
	// Path is where the file now lives (under corrupt/).
	Path string `json:"path"`
	// Dataset is the dataset name the file belonged to, when known.
	Dataset string `json:"dataset,omitempty"`
	// Reason is the verification failure that condemned it.
	Reason string `json:"reason"`
}

// RecoveryReport summarizes what Open found and did.
type RecoveryReport struct {
	// Datasets are the recovered dataset names, sorted.
	Datasets []string
	// SnapshotsLoaded counts snapshots that verified clean.
	SnapshotsLoaded int
	// WALReplayed counts WAL records applied over the snapshots.
	WALReplayed int
	// WALTorn reports a torn/corrupt WAL tail that was truncated away.
	WALTorn bool
	// WALTruncatedAt is the byte offset the WAL was cut back to.
	WALTruncatedAt int64
	// Quarantined lists files moved to corrupt/ during recovery.
	Quarantined []CorruptFile
}

// Stats is the store's observability snapshot.
type Stats struct {
	Dir              string        `json:"dir"`
	Datasets         int           `json:"datasets"`
	WALBytes         int64         `json:"walBytes"`
	WALAppends       int64         `json:"walAppends"`
	SnapshotsWritten int64         `json:"snapshotsWritten"`
	Compactions      int64         `json:"compactions"`
	Fsync            bool          `json:"fsync"`
	CorruptTotal     int64         `json:"corruptTotal"`
	Quarantined      []CorruptFile `json:"quarantined,omitempty"`
}

// Store is a crash-safe dataset store. The commit point of every
// operation is its fsynced WAL append; snapshots are checkpoints that
// keep the WAL short and recovery fast. Put checkpoints its dataset at
// once; an object mutation (AppendMutation) is checkpointed only by the
// next compaction or Open. All methods are safe for concurrent use.
type Store struct {
	dir  string
	fs   FS
	opts Options

	mu       sync.Mutex
	wal      File
	walBytes int64
	nextSeq  uint64
	// live maps name -> current durable dataset; snapSeq tracks the Seq
	// checkpointed in each dataset's snapshot file (so compaction knows
	// which snapshots are stale).
	live    map[string]*Dataset
	snapSeq map[string]uint64

	corruptMu   sync.Mutex
	corrupt     []CorruptFile
	corruptN    atomic.Int64
	walAppends  atomic.Int64
	snapsWrit   atomic.Int64
	compactions atomic.Int64
}

func (s *Store) walPath() string     { return filepath.Join(s.dir, "wal.log") }
func (s *Store) datasetsDir() string { return filepath.Join(s.dir, "datasets") }
func (s *Store) corruptDir() string  { return filepath.Join(s.dir, "corrupt") }
func (s *Store) snapPath(name string) string {
	return filepath.Join(s.datasetsDir(), escapeName(name)+".snap")
}

// Open loads (or initializes) the store at dir, running crash recovery:
// verify and load every snapshot, quarantine the ones that fail their
// checksums, replay the WAL over them, truncate a torn WAL tail, and
// re-checkpoint anything the WAL knew that the snapshots did not. A
// corrupt file never aborts the open — the healthy datasets keep serving
// and the sick ones are surfaced in the report.
func Open(dir string, opts Options) (*Store, *RecoveryReport, error) {
	if opts.FS == nil {
		opts.FS = OS
	}
	if opts.CompactThreshold == 0 {
		opts.CompactThreshold = 8 << 20
	}
	s := &Store{
		dir:     dir,
		fs:      opts.FS,
		opts:    opts,
		live:    make(map[string]*Dataset),
		snapSeq: make(map[string]uint64),
		nextSeq: 1,
	}
	rep := &RecoveryReport{}
	for _, d := range []string{dir, s.datasetsDir(), s.corruptDir()} {
		if err := s.fs.MkdirAll(d); err != nil {
			return nil, nil, fmt.Errorf("store: mkdir %s: %w", d, err)
		}
	}
	if err := s.recover(rep); err != nil {
		return nil, nil, err
	}
	// Open the WAL for appending, creating it with a header if fresh.
	if err := s.openWAL(); err != nil {
		return nil, nil, err
	}
	for name := range s.live {
		rep.Datasets = append(rep.Datasets, name)
	}
	sort.Strings(rep.Datasets)
	rep.Quarantined = append([]CorruptFile(nil), s.corruptList()...)
	return s, rep, nil
}

func (s *Store) recover(rep *RecoveryReport) error {
	// Pass 1: snapshots. Leftover temp files are debris from an
	// interrupted write — the rename never happened, so they are dead.
	names, err := s.fs.ReadDir(s.datasetsDir())
	if err != nil {
		return fmt.Errorf("store: read datasets dir: %w", err)
	}
	for _, fn := range names {
		path := filepath.Join(s.datasetsDir(), fn)
		if strings.HasSuffix(fn, ".tmp") {
			_ = s.fs.Remove(path)
			continue
		}
		if !strings.HasSuffix(fn, ".snap") {
			continue
		}
		b, err := s.fs.ReadFile(path)
		if err != nil {
			s.quarantineFile(path, snapStemName(fn), fmt.Sprintf("unreadable: %v", err))
			continue
		}
		meta, data, muts, err := decodeSnapshot(b)
		if err != nil {
			s.quarantineFile(path, snapStemName(fn), err.Error())
			continue
		}
		rep.SnapshotsLoaded++
		cur, ok := s.live[meta.Name]
		if !ok || meta.Seq > cur.Seq {
			s.live[meta.Name] = &Dataset{Name: meta.Name, Model: meta.Model, Data: data, Muts: muts, Seq: meta.Seq}
			s.snapSeq[meta.Name] = meta.Seq
		}
		if meta.Seq >= s.nextSeq {
			s.nextSeq = meta.Seq + 1
		}
	}

	// Pass 2: WAL replay. A bad header condemns the whole file (nothing
	// after it can be trusted); a bad record merely ends the replay at
	// the last intact one — the truncation-tolerant path a torn append
	// leaves behind.
	walB, err := s.fs.ReadFile(s.walPath())
	if err != nil {
		if !os.IsNotExist(err) {
			return fmt.Errorf("store: read wal: %w", err)
		}
		walB = nil
	}
	recs, goodLen, torn, err := replayWAL(walB)
	if err != nil {
		s.quarantineFile(s.walPath(), "", err.Error())
		goodLen, torn = 0, false
	}
	removed := make(map[string]uint64)
	for _, rec := range recs {
		if rec.Seq >= s.nextSeq {
			s.nextSeq = rec.Seq + 1
		}
		switch rec.Op {
		case opRegister:
			cur, ok := s.live[rec.Name]
			if !ok || rec.Seq > cur.Seq {
				s.live[rec.Name] = &Dataset{Name: rec.Name, Model: rec.Model, Data: rec.Data, Seq: rec.Seq}
				rep.WALReplayed++
			}
			if rmSeq, ok := removed[rec.Name]; ok && rec.Seq > rmSeq {
				delete(removed, rec.Name)
			}
		case opRemove:
			if cur, ok := s.live[rec.Name]; ok && rec.Seq > cur.Seq {
				delete(s.live, rec.Name)
				removed[rec.Name] = rec.Seq
				rep.WALReplayed++
			}
		case opInsert, opDelete:
			// A mutation record for a dataset we do not have (its register
			// record compacted away and its snapshot rotted, or a foreign
			// WAL) is surfaced as corruption but never aborts recovery —
			// healthy datasets keep serving.
			cur, ok := s.live[rec.Name]
			if !ok {
				s.noteCorrupt(s.walPath(), rec.Name,
					fmt.Sprintf("wal %s record seq %d for unknown dataset", rec.Op, rec.Seq))
				continue
			}
			if rec.Seq <= cur.Seq {
				continue // already folded into the snapshot
			}
			m := Mutation{Op: MutInsert, ID: rec.ObjID, Data: rec.Data, Seq: rec.Seq}
			if rec.Op == opDelete {
				m = Mutation{Op: MutDelete, ID: rec.ObjID, Seq: rec.Seq}
			}
			s.live[rec.Name] = cur.withMutation(m)
			rep.WALReplayed++
		case opEpoch:
			// Sequence floor only.
		}
	}
	if torn {
		rep.WALTorn = true
		rep.WALTruncatedAt = goodLen
		if err := s.fs.Truncate(s.walPath(), goodLen); err != nil {
			return fmt.Errorf("store: truncate torn wal: %w", err)
		}
	}

	// Pass 3: reconcile snapshots with the replayed state so every live
	// dataset is checkpointed and no removed dataset can resurrect after
	// a future compaction.
	for name, ds := range s.live {
		if s.snapSeq[name] != ds.Seq {
			if err := s.writeSnapshot(ds); err != nil {
				return fmt.Errorf("store: re-checkpoint %q: %w", name, err)
			}
		}
	}
	for name := range removed {
		if _, ok := s.snapSeq[name]; ok {
			_ = s.fs.Remove(s.snapPath(name))
			delete(s.snapSeq, name)
		}
	}
	return nil
}

func (s *Store) openWAL() error {
	size, err := s.fs.Stat(s.walPath())
	if err != nil {
		if !os.IsNotExist(err) {
			return fmt.Errorf("store: stat wal: %w", err)
		}
		size = 0
	}
	f, err := s.fs.OpenAppend(s.walPath())
	if err != nil {
		return fmt.Errorf("store: open wal: %w", err)
	}
	if size == 0 {
		if _, err := f.Write(walHeader()); err != nil {
			f.Close()
			return fmt.Errorf("store: write wal header: %w", err)
		}
		if s.opts.Fsync {
			if err := f.Sync(); err != nil {
				f.Close()
				return fmt.Errorf("store: sync wal header: %w", err)
			}
		}
		size = int64(len(walHeader()))
	}
	s.wal = f
	s.walBytes = size
	return nil
}

// snapStemName best-effort recovers the dataset name from a snapshot
// filename (for reporting on files too corrupt to read).
func snapStemName(fn string) string {
	stem := strings.TrimSuffix(fn, ".snap")
	if name, err := unescapeName(stem); err == nil {
		return name
	}
	return stem
}

// appendWAL frames, writes, and (per policy) fsyncs one record. Caller
// holds s.mu.
func (s *Store) appendWAL(rec walRecord) error {
	frame, err := encodeWALRecord(rec)
	if err != nil {
		return err
	}
	if _, err := s.wal.Write(frame); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	if s.opts.Fsync {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("store: wal sync: %w", err)
		}
	}
	s.walBytes += int64(len(frame))
	s.walAppends.Add(1)
	return nil
}

// writeSnapshot checkpoints one dataset: temp file, fsync, atomic rename,
// fsync directory. A crash at any point leaves either the old snapshot or
// the new one — never a partially written file under the live name.
func (s *Store) writeSnapshot(ds *Dataset) error {
	b, err := encodeSnapshot(snapMeta{Name: ds.Name, Model: ds.Model, Seq: ds.Seq}, ds.Data, ds.Muts)
	if err != nil {
		return err
	}
	final := s.snapPath(ds.Name)
	tmp := final + ".tmp"
	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", tmp, err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("store: write %s: %w", tmp, err)
	}
	if s.opts.Fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: sync %s: %w", tmp, err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", tmp, err)
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		return fmt.Errorf("store: rename %s: %w", tmp, err)
	}
	if s.opts.Fsync {
		_ = s.fs.SyncDir(s.datasetsDir())
	}
	s.snapSeq[ds.Name] = ds.Seq
	s.snapsWrit.Add(1)
	return nil
}

// Put durably registers (or replaces) a dataset. The operation commits at
// the WAL append; the snapshot write that follows is a checkpoint, so a
// failure there (or a crash before it) still recovers the dataset from
// the WAL on the next Open.
func (s *Store) Put(name, model string, data []byte) error {
	if name == "" {
		return fmt.Errorf("store: empty dataset name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return fmt.Errorf("store: closed")
	}
	seq := s.nextSeq
	rec := walRecord{Seq: seq, Op: opRegister, Name: name, Model: model, Data: data}
	if err := s.appendWAL(rec); err != nil {
		return err
	}
	s.nextSeq = seq + 1
	ds := &Dataset{Name: name, Model: model, Data: data, Seq: seq}
	s.live[name] = ds
	// Checkpoint failures are deliberately not fatal: the WAL holds the
	// committed operation and the next Open re-checkpoints it.
	_ = s.writeSnapshot(ds)
	if s.opts.CompactThreshold > 0 && s.walBytes > s.opts.CompactThreshold {
		_ = s.compactLocked()
	}
	return nil
}

// Delete durably removes a dataset. Removing an absent name is a no-op.
func (s *Store) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return fmt.Errorf("store: closed")
	}
	if _, ok := s.live[name]; !ok {
		return nil
	}
	seq := s.nextSeq
	if err := s.appendWAL(walRecord{Seq: seq, Op: opRemove, Name: name}); err != nil {
		return err
	}
	s.nextSeq = seq + 1
	delete(s.live, name)
	_ = s.fs.Remove(s.snapPath(name))
	delete(s.snapSeq, name)
	return nil
}

// Get returns the durable payload of one dataset.
func (s *Store) Get(name string) (Dataset, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ds, ok := s.live[name]
	if !ok {
		return Dataset{}, false
	}
	return *ds, true
}

// Datasets returns every durable dataset, sorted by name.
func (s *Store) Datasets() []Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Dataset, 0, len(s.live))
	for _, ds := range s.live {
		out = append(out, *ds)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Compact checkpoints every live dataset and swaps in a fresh WAL holding
// only an epoch record (the sequence floor). Crash-safe: the swap is an
// atomic rename performed only after every snapshot is durable, so a
// crash on either side of it recovers the identical state.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	if s.wal == nil {
		return fmt.Errorf("store: closed")
	}
	for _, ds := range s.live {
		if s.snapSeq[ds.Name] != ds.Seq {
			if err := s.writeSnapshot(ds); err != nil {
				return err
			}
		}
	}
	tmp := s.walPath() + ".tmp"
	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: create wal tmp: %w", err)
	}
	frame, err := encodeWALRecord(walRecord{Seq: s.nextSeq, Op: opEpoch})
	if err != nil {
		f.Close()
		return err
	}
	body := append(walHeader(), frame...)
	if _, err := f.Write(body); err != nil {
		f.Close()
		return fmt.Errorf("store: write wal tmp: %w", err)
	}
	if s.opts.Fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: sync wal tmp: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close wal tmp: %w", err)
	}
	// The old append handle is closed before the rename so no write can
	// land on the orphaned inode afterwards.
	_ = s.wal.Close()
	s.wal = nil
	if err := s.fs.Rename(tmp, s.walPath()); err != nil {
		// Reopen the old WAL so the store stays usable.
		if oerr := s.openWAL(); oerr != nil {
			return fmt.Errorf("store: wal swap failed (%v) and reopen failed: %w", err, oerr)
		}
		return fmt.Errorf("store: swap wal: %w", err)
	}
	if s.opts.Fsync {
		_ = s.fs.SyncDir(s.dir)
	}
	if err := s.openWAL(); err != nil {
		return err
	}
	s.nextSeq++ // the epoch consumed a sequence number
	s.compactions.Add(1)
	return nil
}

// Quarantine moves a dataset's snapshot into corrupt/ and drops it from
// the durable set — the path the server takes when a payload verifies at
// the checksum layer but fails to decode or rebuild an engine.
func (s *Store) Quarantine(name, reason string) error {
	s.mu.Lock()
	if s.wal == nil {
		s.mu.Unlock()
		return fmt.Errorf("store: closed")
	}
	_, existed := s.live[name]
	delete(s.live, name)
	delete(s.snapSeq, name)
	seq := s.nextSeq
	var apErr error
	if existed {
		// Log the removal so a WAL register record cannot resurrect the
		// quarantined payload on the next recovery.
		if apErr = s.appendWAL(walRecord{Seq: seq, Op: opRemove, Name: name}); apErr == nil {
			s.nextSeq = seq + 1
		}
	}
	s.mu.Unlock()
	s.quarantineFile(s.snapPath(name), name, reason)
	return apErr
}

// quarantineFile moves path under corrupt/, never overwriting an earlier
// quarantined file of the same name.
func (s *Store) quarantineFile(path, dataset, reason string) {
	base := filepath.Base(path)
	dst := filepath.Join(s.corruptDir(), base)
	for i := 1; ; i++ {
		if _, err := s.fs.Stat(dst); err != nil {
			break
		}
		dst = filepath.Join(s.corruptDir(), fmt.Sprintf("%s.%d", base, i))
	}
	if err := s.fs.Rename(path, dst); err != nil {
		dst = path // could not move; report it where it lies
	}
	s.noteCorrupt(dst, dataset, reason)
}

// noteCorrupt records a corruption finding without moving any file — for
// problems inside a file that must stay where it is (e.g. an orphan
// mutation record in the shared WAL).
func (s *Store) noteCorrupt(path, dataset, reason string) {
	s.corruptMu.Lock()
	s.corrupt = append(s.corrupt, CorruptFile{Path: path, Dataset: dataset, Reason: reason})
	s.corruptMu.Unlock()
	s.corruptN.Add(1)
}

func (s *Store) corruptList() []CorruptFile {
	s.corruptMu.Lock()
	defer s.corruptMu.Unlock()
	return append([]CorruptFile(nil), s.corrupt...)
}

// CorruptTotal counts files quarantined since (and during) Open.
func (s *Store) CorruptTotal() int64 { return s.corruptN.Load() }

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	n := len(s.live)
	wb := s.walBytes
	s.mu.Unlock()
	return Stats{
		Dir:              s.dir,
		Datasets:         n,
		WALBytes:         wb,
		WALAppends:       s.walAppends.Load(),
		SnapshotsWritten: s.snapsWrit.Load(),
		Compactions:      s.compactions.Load(),
		Fsync:            s.opts.Fsync,
		CorruptTotal:     s.corruptN.Load(),
		Quarantined:      s.corruptList(),
	}
}

// Close releases the WAL handle. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}
