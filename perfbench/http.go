package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kcore"
)

// failLatency is what a failed or refused operation adds to a latency
// distribution: it misses every latency limit.
const failLatency = time.Hour

// traffic describes the load of one HTTP workload.
type traffic struct {
	writeTo  *serverProc // every write goes here
	readFrom *serverProc // the open-loop reader and the feed use this server
	readRate float64     // open-loop reads per second
	// writeEvery, when set, makes the writer open-loop: one write is due
	// every writeEvery. Zero makes it closed-loop.
	writeEvery time.Duration
	maxWrites  int  // when set, the writer stops after this many writes
	feed       bool // subscribe to readFrom's change feed
}

// outcome is what one HTTP run observed.
type outcome struct {
	writes              []writeRec
	point, bulk, bulkAt *series
	late                lat // the open-loop generator's own timer slack per read
	kept                *samples
	seen                []obs // epochs the reader saw
	feedSeen            []obs // epochs the change feed delivered
	gaps                int
	readFails           int64
	firstErr            string
}

// drive runs one measured window of HTTP traffic: a writer on its own
// connection (open loop with writeEvery, else closed loop), an open-loop
// reader on another and, with feed, an SSE subscription on a third. e0 is
// the epoch the window starts from.
func drive(cfg config, s *stream, t traffic, bodies [][]byte, e0 uint64) (*outcome, error) {
	window := time.Duration(cfg.seconds * float64(time.Second))
	o := &outcome{point: newSeries(window), bulk: newSeries(window), bulkAt: newSeries(window), kept: newSamples(cfg.seed)}
	var mu sync.Mutex // guards o.firstErr
	fail := func(err error) {
		mu.Lock()
		if o.firstErr == "" {
			o.firstErr = err.Error()
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	var feedSeen []feedMsg
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	feedReady := make(chan error, 1)
	if t.feed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			feedSeen, o.gaps = subscribe(ctx, t.readFrom, feedReady, fail)
		}()
		if err := <-feedReady; err != nil {
			cancel()
			wg.Wait()
			return nil, err
		}
	}

	wc := newClient(60 * time.Second)
	defer wc.close()
	var writing atomic.Bool
	writing.Store(true)
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writing.Store(false)
		pace := &pacer{start: start, interval: t.writeEvery}
		for k := 0; ; k++ {
			t0 := time.Now()
			if t.writeEvery > 0 {
				// Open loop: write k is due at k*writeEvery.
				if time.Duration(k)*t.writeEvery >= window {
					break
				}
				_, t0, _ = pace.next(k)
			} else if t0.Sub(start) >= window {
				break
			}
			if t.maxWrites > 0 && k >= t.maxWrites {
				break
			}
			var resp struct{ Inserted, Deleted int }
			_, err := wc.do("POST", t.writeTo.base+"/edges/batch", bodies[k%len(bodies)], &resp)
			t1 := time.Now()
			pace.done(t1)
			if err != nil {
				fail(err)
			}
			o.writes = append(o.writes, writeRec{
				sent: t0.Sub(start), acked: t1.Sub(start), edges: resp.Inserted + resp.Deleted,
				ok: err == nil && resp.Inserted == s.batch && resp.Deleted == s.batch,
			})
		}
	}()

	rc := newClient(30 * time.Second)
	defer rc.close()
	pace := &pacer{start: start, interval: time.Duration(float64(time.Second) / t.readRate)}
	lastEpoch := e0
	last := false // the writer has finished: one more read sees its final epoch
	for i := 0; ; i++ {
		if !writing.Load() {
			if last {
				break
			}
			last = true
		}
		due, from, late := pace.next(i)
		counted := due.Sub(start) < window && !last
		if counted {
			o.late.add(late)
		}
		at := (i * 7919) % (readRing - bulkSize)
		var rec *series
		var epoch uint64
		var err error
		switch {
		case i%8 == 7:
			rec = o.bulk
			vs := s.reads[at : at+bulkSize]
			var resp struct {
				Coreness []float64
				Epoch    uint64
			}
			_, err = rc.do("POST", t.readFrom.base+"/coreness/bulk", bulkBody(vs, -1), &resp)
			epoch = resp.Epoch
			if err == nil && len(resp.Coreness) != len(vs) {
				err = fmt.Errorf("bulk read of %d vertices returned %d", len(vs), len(resp.Coreness))
			}
			if err == nil {
				o.kept.bulk(vs, resp.Coreness, epoch)
			}
		case i%8 == 3 && lastEpoch >= e0+4:
			rec = o.bulkAt
			var resp struct{ Epoch uint64 }
			_, err = rc.do("POST", t.readFrom.base+"/coreness/bulk", bulkBody(s.reads[at:at+bulkSize], int64(lastEpoch-4)), &resp)
			if err == nil && resp.Epoch != lastEpoch-4 {
				err = fmt.Errorf("bulk read at epoch %d served epoch %d", lastEpoch-4, resp.Epoch)
			}
		default:
			rec = o.point
			v := s.reads[i&(readRing-1)]
			var resp struct {
				Coreness float64
				Epoch    uint64
			}
			_, err = rc.do("GET", t.readFrom.base+"/coreness?v="+strconv.FormatUint(uint64(v), 10), nil, &resp)
			epoch = resp.Epoch
			if err == nil {
				o.kept.point(readSample{v: v, est: resp.Coreness, lo: epoch, hi: epoch, pinned: true})
			}
		}
		done := time.Now()
		pace.done(done)
		if err != nil {
			fail(err)
		}
		if err == nil && epoch > lastEpoch {
			o.seen = append(o.seen, obs{at: done.Sub(start), epoch: epoch})
			lastEpoch = epoch
		}
		if !counted {
			continue
		}
		took := done.Sub(from)
		if err != nil {
			took = failLatency
			o.readFails++
		}
		rec.add(due.Sub(start), took)
	}

	if t.feed {
		// Let the feed deliver the last commits before hanging up.
		st, err := wc.stats(t.writeTo)
		if err == nil {
			err = waitEpoch(rc, t.readFrom, st.Epoch, 30*time.Second)
		}
		if err != nil {
			fail(err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	cancel()
	wg.Wait()
	for _, m := range feedSeen {
		o.feedSeen = append(o.feedSeen, obs{at: m.at.Sub(start), epoch: m.epoch})
	}
	return o, nil
}

// pacer schedules an open-loop generator on one connection: request i is
// due at start + i*interval, whether or not earlier ones have returned.
type pacer struct {
	start    time.Time
	interval time.Duration
	prevDone time.Time // when the previous response completed
}

// next sleeps until request i is due and returns its due time, the time
// its latency is charged from, and the generator's own lateness. A
// request that queued behind the previous response on the connection is
// charged from its due time, so a stall also raises the latency of the
// requests due during it. When the connection was idle by then, the gap
// from due time to send is the generator's timer slack: it is reported as
// lateness, and the request is charged from its send.
func (p *pacer) next(i int) (due, from time.Time, late time.Duration) {
	due = p.start.Add(time.Duration(i) * p.interval)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	sent := time.Now()
	if p.prevDone.After(due) {
		return due, due, sent.Sub(p.prevDone)
	}
	return due, sent, sent.Sub(due)
}

// done notes that the outstanding response completed at t.
func (p *pacer) done(t time.Time) { p.prevDone = t }

// feedMsg is one epoch message of the change feed and when it arrived.
type feedMsg struct {
	at    time.Time
	epoch uint64
}

// subscribe reads p's SSE change feed until ctx ends, noting when each
// epoch message arrived and counting gap markers. It reports on ready
// once the stream's hello arrived (or the subscription failed).
func subscribe(ctx context.Context, p *serverProc, ready chan<- error, fail func(error)) (seen []feedMsg, gaps int) {
	req, err := http.NewRequestWithContext(ctx, "GET", p.base+"/subscribe", nil)
	if err != nil {
		ready <- err
		return nil, 0
	}
	tr := &http.Transport{DisableCompression: true}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		ready <- err
		return nil, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ready <- fmt.Errorf("subscribe: status %d", resp.StatusCode)
		return nil, 0
	}
	hello := false
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	event := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if !hello {
				ready <- fmt.Errorf("subscribe: stream ended before its hello: %v", err)
			} else if ctx.Err() == nil {
				fail(fmt.Errorf("subscribe: %v", err))
			}
			return seen, gaps
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			switch event {
			case "hello":
				hello = true
				ready <- nil
			case "gap":
				gaps++
			case "epoch":
				var msg struct{ Epoch uint64 }
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &msg); err != nil {
					fail(fmt.Errorf("subscribe: %v", err))
					continue
				}
				seen = append(seen, feedMsg{at: time.Now(), epoch: msg.Epoch})
			}
		}
	}
}

// approxBound is the coreness approximation factor of the default
// parameters the servers run with.
func approxBound() float64 {
	p := kcore.DefaultParams()
	return (2 + 3/p.Lambda) * (1 + p.Delta)
}

// finish reports an HTTP run's end-to-end metrics and checks the final
// state of writeTo: e0 is the epoch the window started from.
func finish(r *result, s *stream, cfg config, o *outcome, t traffic, c *client, e0 uint64) {
	window := time.Duration(cfg.seconds * float64(time.Second))
	r.gate(o.firstErr == "", "an operation failed: %s", o.firstErr)
	r.Attempted += int64(o.point.count() + o.bulk.count() + o.bulkAt.count())
	r.Failed += o.readFails
	st, err := c.stats(t.writeTo)
	if err != nil {
		r.gate(false, "final /stats: %v", err)
		return
	}
	// Every write commits the same number of epochs (an insert and a
	// delete sub-batch), so write k ends at e0 + step*(k+1).
	h := &history{e0: e0}
	step := uint64(0)
	if n := uint64(len(o.writes)); n > 0 && (st.Epoch-e0)%n == 0 {
		step = (st.Epoch - e0) / n
	}
	r.gate(step > 0, "%d epochs for %d writes: not a whole number per write", st.Epoch-e0, len(o.writes))
	for k := range o.writes {
		o.writes[k].end = e0 + step*uint64(k+1)
		h.ends = append(h.ends, o.writes[k].end)
	}
	reportWrites(r, o.writes, window)
	reportReads(r, o.point, o.bulk, o.bulkAt)
	reportVisibility(r, o.writes, window, o.seen)
	reportErrors(r, s, h, o.kept, approxBound())
	r.gate(st.Edges == windowEdges, "final edge count %d, want %d", st.Edges, windowEdges)
	fmt.Printf("# open-loop reads: %d per second, lateness p50 %.4g us, p99 %.4g us\n",
		int(t.readRate), o.late.quantile(0.5)/1e3, o.late.quantile(0.99)/1e3)

	// The final estimates of every vertex lie within the bound of exact
	// coreness on the edge set the generator expects.
	all := make([]uint32, s.n)
	for i := range all {
		all[i] = uint32(i)
	}
	var resp struct {
		Coreness []float64
		Epoch    uint64
	}
	if _, err := c.do("POST", t.writeTo.base+"/coreness/bulk", bulkBody(all, int64(st.Epoch)), &resp); err != nil {
		r.gate(false, "final bulk read: %v", err)
		return
	}
	exact := kcore.Static(s.n, s.live(len(o.writes), false))
	bad := 0
	for v, est := range resp.Coreness {
		if ratioError(est, exact[v]) > approxBound() {
			bad++
		}
	}
	r.gate(len(resp.Coreness) == s.n && bad == 0, "final state: %d of %d estimates outside the bound", bad, len(resp.Coreness))
}

// writeBodies pre-encodes one period of the write stream (it repeats).
func writeBodies(s *stream) [][]byte {
	bodies := make([][]byte, s.period())
	for k := range bodies {
		bodies[k] = batchBody(s.op(k))
	}
	return bodies
}

// runHTTPReadHeavy drives one loopback kcore-server: an open-loop writer
// of 5k+5k batches and an open-loop reader of Zipf-skewed vertices.
func runHTTPReadHeavy(cfg config, s *stream, r *result) error {
	basePath, err := writeBaseFile(cfg, s)
	if err != nil {
		return err
	}
	bodies := writeBodies(s)
	var setups []float64
	var srv *serverProc
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		srv, err = startServer(cfg, "server", "-shards", "1", "-load", basePath)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()
	fmt.Printf("# set-ups: %.4g s\n", setups)
	r.set("setup_s", "s", median(setups))

	c := newClient(60 * time.Second)
	defer c.close()
	st, err := c.stats(srv)
	if err != nil {
		return err
	}
	r.gate(st.Edges == windowEdges, "set-up loaded %d of %d edges", st.Edges, windowEdges)
	t := traffic{writeTo: srv, readFrom: srv, readRate: 500, writeEvery: 300 * time.Millisecond}
	o, err := drive(cfg, s, t, bodies, st.Epoch)
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", "MiB", srv.peakRSS())
	finish(r, s, cfg, o, t, c, st.Epoch)
	return nil
}
