// The service example runs crskyd's server in-process and drives it over
// HTTP the way an application would: register a dataset, run a
// probabilistic reverse skyline query, explain a non-answer, ask for a
// minimal repair, mutate the dataset and watch the repair flip that
// non-answer live over /v2/watch, read the serving metrics, and finally
// saturate a tiny server to show admission-control shedding with
// Retry-After.
//
//	go run ./examples/service
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/faultinject"
	"github.com/crsky/crsky/internal/server"
)

func main() {
	// Serve on an ephemeral local port.
	srv := server.New(server.Config{CacheSize: 256, Workers: 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, srv.Handler())
	base := "http://" + ln.Addr().String()
	fmt.Printf("crskyd serving on %s\n\n", base)

	// Register a synthetic uncertain dataset through the CSV upload path.
	ds, err := dataset.GenerateUncertain(dataset.UncertainConfig{N: 2000, Dims: 2, RMax: 5, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	var csv bytes.Buffer
	if err := dataset.SaveUncertainCSV(&csv, ds); err != nil {
		log.Fatal(err)
	}
	var info server.DatasetInfo
	post(base+"/v1/datasets", &server.DatasetRequest{
		Name: "demo", Model: "sample", CSV: csv.String(),
	}, &info)
	fmt.Printf("registered %q: %d objects, %d dims\n", info.Name, info.Size, info.Dims)

	// Query the probabilistic reverse skyline, then pick a non-answer.
	q := []float64{5000, 5000}
	const alpha = 0.5
	var qr server.QueryResponse
	post(base+"/v1/query", &server.QueryRequest{Dataset: "demo", Q: q, Alpha: alpha}, &qr)
	fmt.Printf("probabilistic reverse skyline at α=%.1f: %d answers\n", alpha, qr.Count)

	answers := make(map[int]bool, len(qr.Answers))
	for _, id := range qr.Answers {
		answers[id] = true
	}

	// Explain the first tractable non-answer: skip answers (422 from the
	// server) and non-answers whose candidate set exceeds the cap.
	var (
		an  = -1
		er  server.ExplainResponse
		req *server.ExplainRequest
	)
	for id := 0; id < info.Size; id++ {
		if answers[id] {
			continue
		}
		r := &server.ExplainRequest{Dataset: "demo", Q: q, An: id, Alpha: alpha,
			Options: server.OptionsSpec{MaxCandidates: 24}, Verify: true}
		if tryPost(base+"/v1/explain", r, &er) {
			an, req = id, r
			break
		}
	}
	if an < 0 {
		log.Fatal("no tractable non-answer found")
	}
	fmt.Printf("\nobject %d is a non-answer (Pr=%.4f < α); %d candidate causes, verified=%t\n",
		er.NonAnswer, er.Pr, er.Candidates, er.Verified)
	for i, cause := range er.Causes {
		if i == 5 {
			fmt.Printf("  ... and %d more causes\n", len(er.Causes)-5)
			break
		}
		fmt.Printf("  cause %-6d responsibility %.3f Γ=%v\n", cause.ID, cause.Responsibility, cause.Contingency)
	}
	post(base+"/v1/explain", req, &er) // identical request: served from cache

	// Ask for the smallest intervention that makes an an answer.
	var rr server.RepairResponse
	post(base+"/v1/repair", &server.RepairRequest{Dataset: "demo", Q: q, An: an, Alpha: alpha,
		Options: server.OptionsSpec{MaxCandidates: 24}}, &rr)
	fmt.Printf("\nminimal repair: remove %v → Pr=%.4f (exact=%t)\n", rr.Removed, rr.NewPr, rr.Exact)

	// ?trace=1: any compute request returns its stage-level timing
	// breakdown — where the wall time went (join, exact evaluation,
	// refinement search, pool wait) plus the engine effort counters.
	var traced server.QueryResponse
	post(base+"/v1/query?trace=1", &server.QueryRequest{Dataset: "demo", Q: q, Alpha: alpha, NoCache: true}, &traced)
	fmt.Printf("\n?trace=1 stage breakdown (%.2fms wall):\n", traced.Trace.WallMs)
	for _, sp := range traced.Trace.Spans {
		fmt.Printf("  %-12s %8.3fms (start +%.3fms)\n", sp.Name, sp.DurMs, sp.StartMs)
	}
	fmt.Printf("  counters: joinNodeAccesses=%d objects=%d evaluated=%d\n",
		traced.Trace.Counters["rtree.joinNodeAccesses"],
		traced.Trace.Counters["prsq.objects"],
		traced.Trace.Counters["prsq.evaluated"])

	// v2: batch explain with a per-request deadline. One request carries
	// many non-answers; the response is NDJSON (one item per line, with
	// per-item errors), and ?timeout= cancels the branch-and-bound search
	// mid-run — releasing the server's worker-pool slot — if it cannot
	// finish in time.
	items := []server.BatchExplainItemRequest{
		{Q: q, An: an},
		{Q: q, An: qr.Answers[0]}, // an answer: fails per-item, not per-batch
	}
	for id := an + 1; id < info.Size && len(items) < 4; id++ {
		if !answers[id] {
			items = append(items, server.BatchExplainItemRequest{Q: q, An: id})
		}
	}
	lines := postNDJSON(base+"/v2/explain?timeout=10s", &server.BatchExplainRequest{
		Dataset: "demo", Items: items, Alpha: alpha,
		Options: server.OptionsSpec{MaxCandidates: 24},
	})
	fmt.Printf("\n/v2/explain batch (%d items, 10s deadline):\n", len(items))
	for _, line := range lines {
		var item server.BatchExplainItem
		if err := json.Unmarshal(line, &item); err != nil {
			log.Fatal(err)
		}
		switch {
		case item.Error != "":
			fmt.Printf("  item %d: error: %s\n", item.Index, item.Error)
		default:
			fmt.Printf("  item %d: object %d has %d causes (Pr=%.4f)\n",
				item.Index, item.Explain.NonAnswer, len(item.Explain.Causes), item.Explain.Pr)
		}
	}

	// v2: batch query — many query points amortizing one index traversal.
	qlines := postNDJSON(base+"/v2/query", &server.BatchQueryRequest{
		Dataset: "demo",
		Qs:      [][]float64{q, {4000, 4000}, {6000, 6000}},
		Alpha:   alpha,
	})
	fmt.Printf("\n/v2/query batch:\n")
	for _, line := range qlines {
		var item server.BatchQueryItem
		if err := json.Unmarshal(line, &item); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  q #%d: %d answers\n", item.Index, item.Count)
	}

	// Dynamic data plane: registered datasets are mutable over HTTP. Every
	// mutation installs a copy-on-write generation — in-flight queries keep
	// reading the one they resolved, caches key on it — and the ack carries
	// the committed generation for read-your-write checks. This insert is
	// deliberately inert (far outside every dominance window), so the
	// explanation and repair above stay valid.
	var mr server.MutationResponse
	post(base+"/v2/datasets/demo/objects", &server.ObjectInsertRequest{
		Samples: []server.SampleSpec{{P: 1, Loc: []float64{99999, 99999}}},
	}, &mr)
	fmt.Printf("\ninserted object %d: %d objects, generation now %d\n", mr.ID, mr.Size, mr.Generation)

	// /v2/watch holds a standing subscription on a non-answer: the server
	// verifies it, answers with a "registered" event, and keeps the NDJSON
	// stream open. Then make the minimal repair real — delete its objects
	// one by one. The scheduler re-evaluates the subscription after each
	// committed mutation; the repair is minimal, so only the last delete
	// flips the object into the answer set, pushing the terminal "flipped"
	// event and closing the stream.
	wraw, err := json.Marshal(&server.WatchRequest{Dataset: "demo", Q: q, An: an, Alpha: alpha})
	if err != nil {
		log.Fatal(err)
	}
	wresp, err := http.Post(base+"/v2/watch", "application/json", bytes.NewReader(wraw))
	if err != nil {
		log.Fatal(err)
	}
	defer wresp.Body.Close()
	if wresp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(wresp.Body)
		log.Fatalf("POST /v2/watch: %d %s", wresp.StatusCode, body)
	}
	sc := bufio.NewScanner(wresp.Body)
	fmt.Printf("\nwatching non-answer %d:\n", an)
	fmt.Printf("  %s\n", nextLine(sc)) // the registered ack

	for _, id := range rr.Removed {
		dmr := del(base + fmt.Sprintf("/v2/datasets/demo/objects/%d", id))
		fmt.Printf("  deleted object %d (generation %d)\n", id, dmr.Generation)
	}
	fmt.Printf("  %s\n", nextLine(sc)) // the flipped event

	// Serving metrics.
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstats: cache %d/%d hit rate %.2f, %d pool completions, peak in-flight %d\n",
		st.Cache.Hits, st.Cache.Hits+st.Cache.Misses, st.Cache.HitRate,
		st.Pool.Completed, st.Pool.PeakInFlight)

	// The admin surface (crskyd -admin) serves Prometheus-format /metrics
	// and the pprof endpoints on a separate listener.
	adminLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(adminLn, srv.AdminHandler())
	mresp, err := http.Get("http://" + adminLn.Addr().String() + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, err := io.ReadAll(mresp.Body)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n/metrics (%d bytes); request-latency series:\n", len(metrics))
	for _, line := range bytes.Split(metrics, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("crsky_request_duration_seconds_count")) {
			fmt.Printf("  %s\n", line)
		}
	}

	// Overload: a deliberately tiny second server — one worker, a two-deep
	// admission queue, and an injected 40ms slot stall standing in for
	// expensive queries — hit with 16 concurrent cache-bypassing requests.
	// Every answer is exact: the burst yields exact answers for what the
	// worker gets through and, for the rest, 503s carrying a computed
	// Retry-After, never a slower hang or an approximate answer.
	faults := faultinject.New(faultinject.Config{
		Seed: 1, SlotDelayP: 1, SlotDelayMax: 40 * time.Millisecond,
	})
	tiny := server.New(server.Config{
		Workers: 1, MaxQueue: 2, CacheSize: -1, Faults: faults,
	})
	tinyLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(tinyLn, tiny.Handler())
	tinyBase := "http://" + tinyLn.Addr().String()
	post(tinyBase+"/v1/datasets", &server.DatasetRequest{
		Name: "demo", Model: "sample", CSV: csv.String(),
	}, &info)

	var exactN, shedN atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct points, as real overload traffic sends.
			p := []float64{q[0] + 40*float64(i), q[1] - 40*float64(i)}
			raw, err := json.Marshal(&server.QueryRequest{
				Dataset: "demo", Q: p, Alpha: alpha, NoCache: true,
			})
			if err != nil {
				log.Fatal(err)
			}
			resp, err := http.Post(tinyBase+"/v1/query?timeout=2s", "application/json", bytes.NewReader(raw))
			if err != nil {
				log.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				log.Fatal(err)
			}
			switch resp.StatusCode {
			case http.StatusOK:
				exactN.Add(1)
			case http.StatusServiceUnavailable:
				// A well-behaved client sleeps Retry-After seconds and retries.
				if resp.Header.Get("Retry-After") == "" {
					log.Fatalf("overload query: 503 without Retry-After: %s", body)
				}
				shedN.Add(1)
			default:
				log.Fatalf("overload query: %d %s", resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()

	tresp, err := http.Get(tinyBase + "/v1/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer tresp.Body.Close()
	var tst server.StatsResponse
	if err := json.NewDecoder(tresp.Body).Decode(&tst); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noverload burst (16 concurrent, 1 worker): %d answered exactly, %d shed with Retry-After\n",
		exactN.Load(), shedN.Load())
	fmt.Printf("  admission shed %d queries; %d computations completed\n",
		tst.Admission.ShedQuery, tst.Pool.Completed)
}

func post(url string, req, out any) {
	if !tryPost(url, req, out) {
		log.Fatalf("POST %s failed", url)
	}
}

// del issues an object DELETE and returns the mutation ack.
func del(url string) server.MutationResponse {
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("DELETE %s: %d %s", url, resp.StatusCode, body)
	}
	var mr server.MutationResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		log.Fatal(err)
	}
	return mr
}

// nextLine blocks for the next NDJSON line of a watch stream.
func nextLine(sc *bufio.Scanner) string {
	if !sc.Scan() {
		log.Fatalf("watch stream ended: %v", sc.Err())
	}
	return sc.Text()
}

// postNDJSON posts req and returns the response's NDJSON lines.
func postNDJSON(url string, req any) [][]byte {
	raw, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		log.Fatalf("POST %s: %d %s", url, resp.StatusCode, body)
	}
	var lines [][]byte
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(bytes.TrimSpace(line)) > 0 {
			lines = append(lines, line)
		}
	}
	return lines
}

// tryPost returns false on a 4xx rejection (e.g. "not a non-answer" or
// "too many candidates") and fails hard on transport or server errors.
func tryPost(url string, req, out any) bool {
	raw, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e server.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if resp.StatusCode < 500 {
			return false
		}
		log.Fatalf("POST %s: %d %s", url, resp.StatusCode, e.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
	return true
}
