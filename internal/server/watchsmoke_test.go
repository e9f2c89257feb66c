package server

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWatchSmokeConcurrent is the race-enabled dynamic-plane hammer behind
// `make watch-smoke`: one writer streams inserts and deletes over HTTP
// while concurrent readers query (cached and uncached) and watchers hold
// /v2/watch streams open, some disconnecting mid-stream. Every reader
// answer must be bit-identical to the client-side oracle at the committed
// generation stamped on the response — a blend of two generations or a
// torn R-tree path fails the comparison — and after the storm the hub
// must hold zero subscriptions and the pool zero in-flight work (no
// goroutine or slot leaks from the disconnected clients).
func TestWatchSmokeConcurrent(t *testing.T) {
	const (
		dims      = 2
		initial   = 40
		mutations = 80
		readers   = 4
		watchers  = 6
	)
	s := New(Config{Workers: 2, CacheSize: 512})
	c := newTestClient(t, s)

	rng := rand.New(rand.NewSource(0x5eed))
	pts := make([][]float64, initial)
	for i := range pts {
		pts[i] = []float64{1000 * rng.Float64(), 1000 * rng.Float64()}
	}
	q := []float64{500, 500}

	var info DatasetInfo
	c.post("/v1/datasets", &DatasetRequest{Name: "smoke", Model: ModelCertain, Points: pts}, &info, http.StatusCreated)

	// live mirrors the server's object table client-side; the oracle
	// recomputes the reverse skyline from it after every committed
	// mutation. Only the writer goroutine touches it.
	live := make(map[int][]float64, initial)
	for i, p := range pts {
		live[i] = p
	}
	oracle := func() []int {
		var ids []int
		for an, p := range live {
			blocked := false
			for id, o := range live {
				if id == an {
					continue
				}
				leq, lt := true, false
				for k := range p {
					do, dq := math.Abs(o[k]-p[k]), math.Abs(q[k]-p[k])
					if do > dq {
						leq = false
						break
					}
					if do < dq {
						lt = true
					}
				}
				if leq && lt {
					blocked = true
					break
				}
			}
			if !blocked {
				ids = append(ids, an)
			}
		}
		sort.Ints(ids)
		return ids
	}

	// expected maps every committed generation to its oracle answer.
	var expMu sync.Mutex
	expected := map[uint64][]int{info.Generation: oracle()}

	// Semantics pre-check: the engine and the oracle must agree on the
	// initial generation before the concurrent phase makes a mismatch
	// ambiguous between "torn read" and "wrong oracle".
	if ids, _ := queryAnswers(t, c, "smoke", q, true); !equalIntSlices(ids, expected[info.Generation]) {
		t.Fatalf("oracle disagrees with engine at gen %d: server %v, oracle %v",
			info.Generation, ids, expected[info.Generation])
	}

	var done atomic.Bool
	var wg sync.WaitGroup

	// Writer: sequential HTTP mutations, recording the oracle answer for
	// each acknowledged generation after the ack (readers may observe a
	// generation before its oracle entry exists, so they only record
	// observations and the comparison happens after the join).
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for n := 0; n < mutations; n++ {
			insert := len(live) < 25 || (len(live) <= 60 && rng.Intn(2) == 0)
			var mr MutationResponse
			if insert {
				p := []float64{1000 * rng.Float64(), 1000 * rng.Float64()}
				c.post("/v2/datasets/smoke/objects", &ObjectInsertRequest{Point: p}, &mr, http.StatusOK)
				live[mr.ID] = p
			} else {
				ids := make([]int, 0, len(live))
				for id := range live {
					ids = append(ids, id)
				}
				sort.Ints(ids)
				id := ids[rng.Intn(len(ids))]
				resp, raw := c.do(http.MethodDelete, fmt.Sprintf("/v2/datasets/smoke/objects/%d", id), nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("delete %d: status %d (%s)", id, resp.StatusCode, raw)
					return
				}
				if err := json.Unmarshal(raw, &mr); err != nil {
					t.Errorf("delete %d: %v", id, err)
					return
				}
				delete(live, id)
			}
			expMu.Lock()
			expected[mr.Generation] = oracle()
			expMu.Unlock()
		}
	}()

	// Readers: hammer /v1/query, alternating cache bypass, recording
	// (generation, answers) observations. Overload sheds (503) are
	// tolerated — correctness is about the answers that were served.
	type obs struct {
		gen uint64
		ids []int
	}
	var obsMu sync.Mutex
	var observed []obs
	var served, shed int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				req := &QueryRequest{Dataset: "smoke", Q: q, NoCache: i%3 == 0}
				resp, raw := c.do(http.MethodPost, "/v1/query", req)
				if resp.StatusCode != http.StatusOK {
					atomic.AddInt64(&shed, 1)
					continue
				}
				var qr QueryResponse
				if err := json.Unmarshal(raw, &qr); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				atomic.AddInt64(&served, 1)
				obsMu.Lock()
				observed = append(observed, obs{gen: qr.Generation, ids: qr.Answers})
				obsMu.Unlock()
			}
		}(r)
	}

	// Watchers: subscribe to whatever currently registers as a non-answer
	// (races with the writer make 404/422 rejections routine — retry).
	// Even-numbered watchers disconnect immediately after the registered
	// event; the rest hold the stream until the hammer ends. Either way
	// the hub must reap the subscription slot.
	for wi := 0; wi < watchers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(wi)))
			for attempt := 0; attempt < 50 && !done.Load(); attempt++ {
				an := rng.Intn(initial + mutations/2)
				body := fmt.Sprintf(`{"dataset":"smoke","q":[500,500],"an":%d}`, an)
				resp, err := c.ts.Client().Post(c.ts.URL+"/v2/watch", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("watcher %d: %v", wi, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					continue // answer (422) or deleted id (404): pick another
				}
				if wi%2 == 0 {
					resp.Body.Close() // mid-stream disconnect
					return
				}
				go func() {
					for !done.Load() {
						time.Sleep(5 * time.Millisecond)
					}
					resp.Body.Close()
				}()
				var buf [4096]byte
				for {
					if _, err := resp.Body.Read(buf[:]); err != nil {
						return // terminal event or our own close
					}
				}
			}
		}(wi)
	}

	wg.Wait()
	if served == 0 {
		t.Fatalf("no reader request was served (%d shed)", shed)
	}

	// Every served answer must match the oracle at its stamped generation.
	for _, o := range observed {
		expMu.Lock()
		want, ok := expected[o.gen]
		expMu.Unlock()
		if !ok {
			t.Fatalf("answer stamped with unknown generation %d", o.gen)
		}
		if !equalIntSlices(o.ids, want) {
			t.Fatalf("torn read at gen %d: served %v, committed %v", o.gen, o.ids, want)
		}
	}

	// Leak check: once the streams are gone the hub must be empty and the
	// worker pool drained. Disconnected watchers are reaped when their
	// write fails or their context dies, so allow a short settle.
	s.watch.WaitIdle()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st StatsResponse
		c.mustGet("/v1/stats", &st)
		if st.Watch.Active == 0 && st.Pool.InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak after hammer: %d watch subs, %d pool in-flight",
				st.Watch.Active, st.Pool.InFlight)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
