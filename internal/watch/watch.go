// Package watch is the /v2/watch subscription hub: clients register a
// non-answer (a query point and the object whose absence they care about)
// and hold an NDJSON stream open; after every committed mutation the hub
// schedules a re-evaluation of the affected subscriptions and pushes an
// event when a watched non-answer flips into the answer set or its
// minimal repair shrinks.
//
// The hub is deliberately engine-agnostic. It knows three things: which
// subscriptions exist per dataset, how to coalesce mutation notices, and
// how to prune subscriptions whose dominance window a mutation cannot
// touch. The actual re-evaluation (one membership probe per subscription
// against the current engine generation) is injected by the serving layer
// as a Reevaluator.
package watch

import (
	"slices"
	"sync"

	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/stats"
)

// Event kinds pushed down a subscription stream. Flipped and Deleted are
// terminal: the hub closes the stream after delivering them.
const (
	KindRegistered   = "registered"
	KindFlipped      = "flipped"
	KindRepairShrunk = "repair_shrunk"
	KindDeleted      = "deleted"
)

// Event is one NDJSON line of a /v2/watch stream.
type Event struct {
	Event      string `json:"event"`
	Dataset    string `json:"dataset"`
	Generation uint64 `json:"generation"`
	An         int    `json:"an"`
	// Answer reports whether the watched object is in the answer set at
	// Generation (true exactly once, on the terminal "flipped" event).
	Answer bool `json:"answer"`
	// Repair is the current minimal repair (present on "registered" when
	// repair tracking is on, and on every "repair_shrunk").
	Repair []int  `json:"repair,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Sub is one registered subscription. The exported fields are immutable
// after Register; the hub and the serving layer coordinate event delivery
// through the methods.
type Sub struct {
	ID      uint64
	Dataset string
	Q       geom.Point
	An      int
	Alpha   float64
	// QuadNodes tunes pdf quadrature for re-evaluations (0 = default).
	QuadNodes int
	// TrackRepair enables repair_shrunk events (each re-evaluation then
	// also recomputes the minimal repair, which is much more expensive
	// than the membership check alone).
	TrackRepair bool
	// Window bounds the region where an object insertion or deletion can
	// change this subscription's membership: the dominance rectangle
	// union DomRectUnionOuter(anMBR, q). Mutations whose MBR misses it
	// are pruned without re-evaluation. HasWindow false disables pruning
	// (wrapped engines the serving layer cannot introspect).
	Window    geom.Rect
	HasWindow bool

	mu       sync.Mutex
	ch       chan Event
	closed   bool
	terminal bool
	// repairN is the smallest repair size pushed so far (baseline for
	// repair_shrunk); negative until a baseline is set.
	repairN int

	drops *stats.Counter
}

// Events is the delivery channel. It is closed after a terminal event
// (flipped, deleted) and never otherwise; the reader must also stop on
// its own request context.
func (s *Sub) Events() <-chan Event { return s.ch }

// SetRepairBaseline records the size of the last repair pushed to the
// client; only strictly smaller repairs are worth an event.
func (s *Sub) SetRepairBaseline(n int) {
	s.mu.Lock()
	s.repairN = n
	s.mu.Unlock()
}

// RepairBaseline returns the last pushed repair size (negative = none yet).
func (s *Sub) RepairBaseline() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repairN
}

func (s *Sub) isTerminal() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.terminal || s.closed
}

// send delivers ev without ever blocking the hub: when the subscriber is
// slow and its buffer is full, the oldest buffered event is dropped (the
// stream is a change notification, not a transaction log — the client
// re-reads current state on any event). Terminal events mark the sub
// dead and close the channel.
func (s *Sub) send(ev Event, terminal bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.terminal {
		return false
	}
	for {
		select {
		case s.ch <- ev:
			if terminal {
				s.terminal = true
				s.closed = true
				close(s.ch)
			}
			return true
		default:
			select {
			case <-s.ch:
				if s.drops != nil {
					s.drops.Inc()
				}
			default:
			}
		}
	}
}

// notice is the coalesced pending work for one dataset: the union of the
// mutation windows committed since the last re-evaluation round, the
// newest generation, and the object IDs deleted in the round.
type notice struct {
	gen uint64
	// window is the union of mutated-object MBRs; all=true means at
	// least one mutation had no known MBR, so every subscription is
	// affected.
	window  geom.Rect
	hasWin  bool
	all     bool
	deleted []int
}

// Reevaluator re-checks the given (already pruned, non-terminal)
// subscriptions of one dataset against the current engine state and emits
// events through Hub.Emit. It runs on the hub's worker goroutine and may
// block; the hub keeps coalescing new notices meanwhile.
type Reevaluator func(dataset string, gen uint64, subs []*Sub)

// Stats is a point-in-time snapshot of hub activity.
type Stats struct {
	Active       int   `json:"active"`
	Registered   int64 `json:"registered"`
	Flipped      int64 `json:"flipped"`
	RepairShrunk int64 `json:"repairShrunk"`
	Deleted      int64 `json:"deleted"`
	Dropped      int64 `json:"dropped"`
	Pruned       int64 `json:"pruned"`
	Coalesced    int64 `json:"coalesced"`
	Reevals      int64 `json:"reevals"`
}

// Hub owns the subscriptions and the re-evaluation scheduler: one lazily
// started worker goroutine drains the pending notices and exits when the
// queue is empty, so an idle or subscriber-less hub holds no goroutine.
type Hub struct {
	mu      sync.Mutex
	subs    map[string]map[uint64]*Sub
	pending map[string]*notice
	order   []string
	nextID  uint64
	running bool
	reeval  Reevaluator
	// idle is closed-over by tests via WaitIdle: broadcast whenever the
	// worker drains the queue.
	idle *sync.Cond

	registered, flipped, shrunk, deletedEv stats.Counter
	dropped, pruned, coalesced, reevals    stats.Counter
}

// NewHub builds a hub that re-evaluates through reeval (nil is allowed:
// affected subscriptions are then simply not re-evaluated, which only
// makes sense in tests).
func NewHub(reeval Reevaluator) *Hub {
	h := &Hub{
		subs:    make(map[string]map[uint64]*Sub),
		pending: make(map[string]*notice),
		reeval:  reeval,
	}
	h.idle = sync.NewCond(&h.mu)
	return h
}

// Register installs a subscription and returns it. bufferCap bounds the
// per-subscriber event buffer (<=0 selects the default 32).
func (h *Hub) Register(dataset string, q geom.Point, an int, alpha float64, quadNodes int,
	window geom.Rect, hasWindow bool, trackRepair bool) *Sub {

	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextID++
	s := &Sub{
		ID:          h.nextID,
		Dataset:     dataset,
		Q:           q,
		An:          an,
		Alpha:       alpha,
		QuadNodes:   quadNodes,
		TrackRepair: trackRepair,
		Window:      window,
		HasWindow:   hasWindow,
		ch:          make(chan Event, 32),
		repairN:     -1,
		drops:       &h.dropped,
	}
	m, ok := h.subs[dataset]
	if !ok {
		m = make(map[uint64]*Sub)
		h.subs[dataset] = m
	}
	m[s.ID] = s
	h.registered.Inc()
	return s
}

// Unregister removes a subscription (the handler's defer). Idempotent;
// safe against concurrent terminal delivery.
func (h *Hub) Unregister(s *Sub) {
	h.mu.Lock()
	if m, ok := h.subs[s.Dataset]; ok {
		delete(m, s.ID)
		if len(m) == 0 {
			delete(h.subs, s.Dataset)
		}
	}
	h.mu.Unlock()
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.ch)
	}
	s.mu.Unlock()
}

// Notify records one committed mutation against dataset: gen is the
// generation the mutation installed, window the mutated object's MBR
// (hasWindow false when unknown — every subscription is then affected),
// and deletedID the tombstoned object (negative for inserts). Notices
// coalesce: many mutations committed while a re-evaluation round runs
// fold into a single pending round.
func (h *Hub) Notify(dataset string, gen uint64, window geom.Rect, hasWindow bool, deletedID int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.subs[dataset]) == 0 {
		return
	}
	n, ok := h.pending[dataset]
	if !ok {
		n = &notice{gen: gen, window: window, hasWin: hasWindow, all: !hasWindow}
		h.pending[dataset] = n
		h.order = append(h.order, dataset)
	} else {
		h.coalesced.Inc()
		if gen > n.gen {
			n.gen = gen
		}
		switch {
		case !hasWindow:
			n.all = true
		case n.hasWin:
			n.window = n.window.Union(window)
		default:
			n.window, n.hasWin = window, true
		}
	}
	if deletedID >= 0 {
		n.deleted = append(n.deleted, deletedID)
	}
	if !h.running {
		h.running = true
		go h.loop()
	}
}

// DatasetReset terminates every subscription of dataset with a "deleted"
// event — the dataset was removed or replaced wholesale, so object IDs no
// longer mean what the watchers registered against.
func (h *Hub) DatasetReset(dataset string, gen uint64) {
	h.mu.Lock()
	subs := h.subs[dataset]
	delete(h.pending, dataset)
	h.mu.Unlock()
	for _, s := range subs {
		h.Emit(s, Event{Event: KindDeleted, Dataset: dataset, Generation: gen, An: s.An})
	}
}

// Emit delivers one event, doing the kind-specific bookkeeping: counter,
// terminal close on flipped/deleted, repair baseline on repair_shrunk.
func (h *Hub) Emit(s *Sub, ev Event) {
	terminal := false
	switch ev.Event {
	case KindFlipped:
		h.flipped.Inc()
		terminal = true
	case KindDeleted:
		h.deletedEv.Inc()
		terminal = true
	case KindRepairShrunk:
		h.shrunk.Inc()
		s.SetRepairBaseline(len(ev.Repair))
	}
	s.send(ev, terminal)
}

// loop is the re-evaluation worker: pop a dataset's coalesced notice,
// prune, hand the affected subscriptions to the Reevaluator, repeat.
// Exits when the queue drains; Notify restarts it.
func (h *Hub) loop() {
	h.mu.Lock()
	for len(h.order) > 0 {
		name := h.order[0]
		h.order = h.order[1:]
		n := h.pending[name]
		delete(h.pending, name)
		var affected []*Sub
		for _, s := range h.subs[name] {
			if s.isTerminal() {
				continue
			}
			if slices.Contains(n.deleted, s.An) {
				// The watched object itself was deleted: terminal, no
				// re-evaluation needed.
				h.Emit(s, Event{Event: KindDeleted, Dataset: name, Generation: n.gen, An: s.An})
				continue
			}
			if !n.all && n.hasWin && s.HasWindow && !s.Window.Intersects(n.window) {
				h.pruned.Inc()
				continue
			}
			affected = append(affected, s)
		}
		if len(affected) == 0 || h.reeval == nil {
			continue
		}
		reeval := h.reeval
		h.reevals.Inc()
		// The engine work runs outside the hub lock: new mutations keep
		// coalescing into pending while the round computes.
		h.mu.Unlock()
		reeval(name, n.gen, affected)
		h.mu.Lock()
	}
	h.running = false
	h.idle.Broadcast()
	h.mu.Unlock()
}

// WaitIdle blocks until no re-evaluation round is pending or running —
// the synchronization point tests (and the smoke harness) use to assert
// post-mutation stream contents deterministically.
func (h *Hub) WaitIdle() {
	h.mu.Lock()
	for h.running || len(h.order) > 0 {
		h.idle.Wait()
	}
	h.mu.Unlock()
}

// Stats snapshots hub activity.
func (h *Hub) Stats() Stats {
	h.mu.Lock()
	active := 0
	for _, m := range h.subs {
		active += len(m)
	}
	h.mu.Unlock()
	return Stats{
		Active:       active,
		Registered:   h.registered.Value(),
		Flipped:      h.flipped.Value(),
		RepairShrunk: h.shrunk.Value(),
		Deleted:      h.deletedEv.Value(),
		Dropped:      h.dropped.Value(),
		Pruned:       h.pruned.Value(),
		Coalesced:    h.coalesced.Value(),
		Reevals:      h.reevals.Value(),
	}
}
