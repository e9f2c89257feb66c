package store

import "fmt"

// Mutation ops. The strings appear in snapshots and fsck output, so they
// are part of the on-disk vocabulary.
const (
	MutInsert = "insert"
	MutDelete = "delete"
)

// Mutation is one durable object-level change to a registered dataset —
// the incremental records the WAL format reserved opInsert/opDelete for.
// The store treats the insert payload as opaque bytes (the server encodes
// the object spec); ID is the positional object ID the server assigned
// (insert) or tombstoned (delete).
type Mutation struct {
	// Op is MutInsert or MutDelete.
	Op string
	// ID is the object ID the mutation touches.
	ID int
	// Data is the encoded object payload (insert only).
	Data []byte
	// Seq is the mutation's WAL sequence, assigned by AppendMutation.
	Seq uint64
}

func (m Mutation) validate() error {
	switch m.Op {
	case MutInsert:
		if len(m.Data) == 0 {
			return fmt.Errorf("store: insert mutation without payload")
		}
	case MutDelete:
	default:
		return fmt.Errorf("store: unknown mutation op %q", m.Op)
	}
	if m.ID < 0 {
		return fmt.Errorf("store: negative mutation object ID %d", m.ID)
	}
	return nil
}

// AppendMutation durably logs one object mutation against a registered
// dataset and appends it to the dataset's durable state: base payload plus
// ordered mutation log, replayed at recovery in sequence order so a
// restarted server reconverges to the identical post-mutation engine. The
// operation commits at the WAL append alone — one write and, with Fsync,
// one sync — and writes no snapshot: the mutation reaches one at the next
// compaction or Open, and until then recovery replays its WAL record over
// the dataset's older snapshot. The returned sequence number is the
// mutation's WAL sequence. Mutating an unregistered dataset is an error —
// the caller registers (Put) first.
func (s *Store) AppendMutation(name string, m Mutation) (uint64, error) {
	if err := m.validate(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return 0, fmt.Errorf("store: closed")
	}
	cur, ok := s.live[name]
	if !ok {
		return 0, fmt.Errorf("store: mutation for unknown dataset %q", name)
	}
	seq := s.nextSeq
	rec := walRecord{Seq: seq, Op: opInsert, Name: name, ObjID: m.ID}
	if m.Op == MutDelete {
		rec.Op = opDelete
	} else {
		rec.Data = m.Data
	}
	if err := s.appendWAL(rec); err != nil {
		return 0, err
	}
	s.nextSeq = seq + 1
	m.Seq = seq
	s.live[name] = cur.withMutation(m)
	if s.opts.CompactThreshold > 0 && s.walBytes > s.opts.CompactThreshold {
		_ = s.compactLocked()
	}
	return seq, nil
}

// withMutation returns a new Dataset with m appended to the mutation log
// in amortized O(1): the append may write into spare capacity of d's
// backing array instead of copying the log. That is safe because only
// live[name] is ever appended to, under s.mu. Every shallow copy that Get
// and Datasets hand out keeps its own length, so it sees only its own
// prefix, which no later append overwrites; and Put replaces the log
// rather than appending to it.
func (d *Dataset) withMutation(m Mutation) *Dataset {
	return &Dataset{Name: d.Name, Model: d.Model, Data: d.Data, Muts: append(d.Muts, m), Seq: m.Seq}
}
