package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"kcore"
	"kcore/internal/cplds"
	"kcore/internal/graph"
	"kcore/internal/lds"
	"kcore/internal/mvcc"
	"kcore/internal/plds"
	"kcore/internal/shard"
)

// The traced run replays one period of the workload's op stream (every
// edge of the graph inserted and deleted once) through a ladder of entry
// points, one full pass per rung, each from a fresh instance loaded with
// the same base graph, so op k meets the same state on every rung. Each
// op's wall time is its span on that rung; a layer's self time on op k is
// its rung's span minus the span of the rung below on the same op. Reads
// run on a second goroutine (or connection) while the rung's own writes
// run. The end-to-end numbers never come from this run.
//
//	rung     entry point                         below   layer
//	graph    graph.Dynamic Insert/DeleteEdges     -       graph
//	plds     plds.InsertBatch/DeleteBatch         graph   plds (sweep)
//	cplds    cplds.InsertBatch/DeleteBatch        plds    cplds (+mvcc capture)
//	shard    shard.Engine.Apply, P=1              cplds   shard
//	kcore    kcore.ApplyBatch, P=1                cplds   kcore (singleEngine)
//	wal      kcore.ApplyBatch, WAL fsync always   kcore   wal
//	server   POST /edges/batch                    shard   server
//	replica  primary (WAL) + follower + feed      server  replica, feed

// inproc is one in-process rung: apply replays op k; the read entry
// points are nil where the rung has none.
type inproc struct {
	apply  func(k int)
	read   func(v uint32)
	bulk   func(vs []uint32, out []float64) uint64
	bulkAt func(vs []uint32, out []float64, epoch uint64) error
}

// pass is what one pass over a rung recorded.
type pass struct {
	spans               []time.Duration // per op
	total               time.Duration   // wall time of all ops
	point, bulk, bulkAt lat
	atTried, atEvicted  int
}

// replay runs ops [0, n) through rg, with a reader on a second goroutine
// while they run. With spans false it issues the same point reads and
// clock calls but records nothing except the total wall time: that is the
// untraced pass the trace overhead is measured against.
func replay(rg inproc, s *stream, n int, spans bool) *pass {
	p := &pass{}
	var done atomic.Bool
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		if rg.read == nil {
			return
		}
		out := make([]float64, bulkSize)
		for i := 0; !done.Load(); i++ {
			v := s.reads[i&(readRing-1)]
			t0 := time.Now()
			rg.read(v)
			d := time.Since(t0)
			if !spans {
				continue // same reads and clock calls, nothing recorded
			}
			p.point.add(d)
			if i&1023 != 0 || rg.bulk == nil {
				continue
			}
			at := (i >> 10 * bulkSize) % (readRing - bulkSize)
			vs := s.reads[at : at+bulkSize]
			t0 = time.Now()
			e := rg.bulk(vs, out)
			p.bulk.add(time.Since(t0))
			if rg.bulkAt == nil || e < 4 {
				continue
			}
			p.atTried++
			t0 = time.Now()
			if err := rg.bulkAt(vs, out, e-4); err != nil {
				if errors.Is(err, mvcc.ErrEvicted) {
					p.atEvicted++
				}
				continue
			}
			p.bulkAt.add(time.Since(t0))
		}
	}()
	start := time.Now()
	for k := 0; k < n; k++ {
		t0 := time.Now()
		rg.apply(k)
		if spans {
			p.spans = append(p.spans, time.Since(t0))
		}
	}
	p.total = time.Since(start)
	done.Store(true)
	<-readerDone
	return p
}

// selfTimes returns, per op, upper's span minus lower's span on the same op.
func selfTimes(upper, lower []time.Duration) []float64 {
	out := make([]float64, min(len(upper), len(lower)))
	for k := range out {
		out[k] = float64(upper[k] - lower[k])
	}
	return out
}

// p50 is the median of durations in nanoseconds.
func p50(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return median(xs)
}

func toGraph(es []kcore.Edge) []graph.Edge {
	out := make([]graph.Edge, len(es))
	for i, e := range es {
		out[i] = graph.Edge{U: e.U, V: e.V}
	}
	return out
}

// traceLadder runs the ladder and reports the per-layer metrics.
func traceLadder(cfg config, s *stream, r *result) error {
	n := s.period()
	ins := make([][]kcore.Edge, n)
	del := make([][]kcore.Edge, n)
	gins := make([][]graph.Edge, n)
	gdel := make([][]graph.Edge, n)
	for k := range ins {
		ins[k], del[k] = s.op(k)
		gins[k], gdel[k] = toGraph(ins[k]), toGraph(del[k])
	}
	base, gbase := s.base(), toGraph(s.base())
	params := lds.DefaultParams()
	fmt.Printf("# ladder: %d ops of %d+%d edges per rung\n", n, s.batch, s.batch)
	counted := func(p *pass) {
		r.Attempted += int64(len(p.spans) + p.point.count() + p.bulk.count() + p.atTried)
	}

	// graph
	g := graph.NewDynamic(s.n)
	g.InsertEdges(gbase)
	pg := replay(inproc{apply: func(k int) { g.InsertEdges(gins[k]); g.DeleteEdges(gdel[k]) }}, s, n, true)
	counted(pg)
	r.gate(g.NumEdges() == windowEdges, "graph rung: %d edges after a period, want %d", g.NumEdges(), windowEdges)
	r.set("graph.merge_ms_p50", "ms", p50(pg.spans)/1e6)
	g = nil

	// plds: the batch sweep without the concurrent-read machinery.
	pl := plds.New(s.n, params, nil)
	t0 := time.Now()
	pl.InsertBatch(gbase)
	r.set("plds.load_s", "s", time.Since(t0).Seconds())
	pp := replay(inproc{
		apply: func(k int) { pl.InsertBatch(gins[k]); pl.DeleteBatch(gdel[k]) },
		read:  func(v uint32) { pl.Estimate(v) },
	}, s, n, true)
	counted(pp)
	err := pl.CheckInvariants()
	r.gate(err == nil, "plds rung: %v", err)
	r.set("plds.sweep_ms_p50", "ms", median(selfTimes(pp.spans, pg.spans))/1e6)
	r.set("plds.read_ns_p99", "ns", pp.point.quantile(0.99))
	pl = nil

	// cplds, with the default retention so the MVCC capture is in its span.
	c := cplds.New(s.n, params)
	c.SetRetainedEpochs(kcore.DefaultRetainedEpochs)
	c.InsertBatch(gbase)
	retries0 := c.ReadRetries()
	pc := replay(inproc{
		apply:  func(k int) { c.InsertBatch(gins[k]); c.DeleteBatch(gdel[k]) },
		read:   func(v uint32) { c.Read(v) },
		bulk:   c.ReadManyPinned,
		bulkAt: c.ReadManyAt,
	}, s, n, true)
	counted(pc)
	err = c.CheckInvariants()
	r.gate(err == nil, "cplds rung: %v", err)
	r.set("cplds.commit_self_ms_p50", "ms", median(selfTimes(pc.spans, pp.spans))/1e6)
	r.set("cplds.read_ns_p50", "ns", pc.point.quantile(0.5))
	r.set("cplds.read_ns_p99", "ns", pc.point.quantile(0.99))
	r.set("cplds.read_overhead_x", "x", pc.point.quantile(0.99)/pp.point.quantile(0.99))
	r.set("cplds.read_retries_per_kread", "1/kread", 1000*float64(c.ReadRetries()-retries0)/float64(pc.point.count()))
	r.set("mvcc.bulk_at_self_us_p50", "us", (pc.bulkAt.quantile(0.5)-pc.bulk.quantile(0.5))/1e3)
	r.set("mvcc.evicted_frac", "frac", float64(pc.atEvicted)/float64(max(pc.atTried, 1)))
	r.Failed += int64(pc.atEvicted)
	c = nil

	// shard: the scheduler, normalize/coalesce and pinned reads at P=1.
	e := shard.New(s.n, 1, params)
	e.SetRetainedEpochs(kcore.DefaultRetainedEpochs)
	e.Insert(gbase)
	batches0 := e.Batches()
	ps := replay(inproc{
		apply: func(k int) { e.Apply(gins[k], gdel[k]) },
		read:  func(v uint32) { e.ReadPinned(v) },
		bulk:  e.ReadManyPinned,
	}, s, n, true)
	counted(ps)
	err = e.CheckInvariants()
	r.gate(err == nil, "shard rung: %v", err)
	r.set("shard.apply_self_ms_p50", "ms", median(selfTimes(ps.spans, pc.spans))/1e6)
	r.set("shard.read_ns_p99", "ns", ps.point.quantile(0.99))
	r.set("shard.batches_per_apply", "count", float64(e.Batches()-batches0)/float64(n))
	e = nil

	// kcore: the public API, which at P=1 runs on the cplds rung directly.
	kcoreRung := func(d *kcore.Decomposition) inproc {
		return inproc{
			apply: func(k int) { d.ApplyBatch(ins[k], del[k]) },
			read:  func(v uint32) { d.Coreness(v) },
			bulk:  func(vs []uint32, out []float64) uint64 { return d.View().CorenessManyInto(vs, out) },
		}
	}
	d, err := kcore.New(s.n)
	if err != nil {
		return err
	}
	d.InsertEdges(base)
	pk := replay(kcoreRung(d), s, n, true)
	counted(pk)
	err = d.Check()
	r.gate(err == nil, "kcore rung: %v", err)
	d.Close()
	r.set("kcore.apply_self_ms_p50", "ms", median(selfTimes(pk.spans, pc.spans))/1e6)
	r.set("kcore.bulk_self_us_p50", "us", (pk.bulk.quantile(0.5)-pc.bulk.quantile(0.5))/1e3)

	// The same rung untraced: only its total wall time is taken.
	runtime.GC()
	d, err = kcore.New(s.n)
	if err != nil {
		return err
	}
	d.InsertEdges(base)
	pu := replay(kcoreRung(d), s, n, false)
	d.Close()
	r.set("harness.trace_overhead_frac", "frac", pk.total.Seconds()/pu.total.Seconds()-1)

	// wal: the kcore rung with a write-ahead log fsynced on every batch.
	walDir := filepath.Join(cfg.dir, "trace-wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return err
	}
	d, err = kcore.New(s.n, kcore.WithWAL(walDir, kcore.WALOptions{Sync: kcore.SyncAlways}))
	if err != nil {
		return err
	}
	d.InsertEdges(base)
	ds0, _ := d.DurabilityStats()
	pw := replay(kcoreRung(d), s, n, true)
	counted(pw)
	ds, _ := d.DurabilityStats()
	if err := d.Close(); err != nil {
		return err
	}
	r.gate(ds.LoggedBatches > ds0.LoggedBatches && ds.Err == "", "wal rung: logged %d batches, error %q", ds.LoggedBatches-ds0.LoggedBatches, ds.Err)
	r.set("wal.append_self_ms_p50", "ms", median(selfTimes(pw.spans, pk.spans))/1e6)
	r.set("wal.bytes_per_edge", "B/edge", float64(ds.LogBytes-ds0.LogBytes)/float64(2*n*s.batch))
	r.set("wal.append_retries", "count", float64(ds.AppendRetries))

	return traceServers(cfg, s, r, n, ps)
}

// traceServers runs the two HTTP rungs: one server, then a WAL-backed
// primary with a follower and its change feed.
func traceServers(cfg config, s *stream, r *result, n int, below *pass) error {
	basePath, err := writeBaseFile(cfg, s)
	if err != nil {
		return err
	}
	bodies := writeBodies(s)
	c := newClient(60 * time.Second)
	defer c.close()
	long := cfg
	long.seconds = 3600 // every op of the pass is measured; the writer stops after n

	// server: HTTP decode, validation, JSON and middleware over shard.
	// Retention 64, as on the follower: the reader's epoch-4 reads must
	// not race eviction when small writes commit hundreds of epochs a second.
	srv, err := startServer(cfg, "trace-server", "-shards", "1", "-retain", "64", "-load", basePath)
	if err != nil {
		return err
	}
	st, err := c.stats(srv)
	if err != nil {
		srv.stop()
		return err
	}
	t := traffic{writeTo: srv, readFrom: srv, readRate: 500, maxWrites: n}
	o, err := drive(long, s, t, bodies, st.Epoch)
	if err == nil {
		st, err = c.stats(srv)
	}
	srv.stop()
	if err != nil {
		return err
	}
	spans := writeSpans(r, o)
	r.set("server.write_self_ms_p50", "ms", median(selfTimes(spans, below.spans))/1e6)
	r.set("server.read_self_us_p50", "us", (o.point.all.quantile(0.5)-below.point.quantile(0.5))/1e3)
	r.set("server.bulk_self_us_p50", "us", (o.bulk.all.quantile(0.5)-below.bulk.quantile(0.5))/1e3)
	r.set("server.shed", "count", float64(st.Overload.LoadShed+st.Overload.RateLimited+st.Overload.Timeouts))
	r.set("harness.gen_late_us_p99", "us", o.late.quantile(0.99)/1e3)

	// replica: a WAL-backed primary and a follower with an SSE subscriber.
	walDir := filepath.Join(cfg.dir, "trace-primary-wal")
	replAddr, err := freeAddr()
	if err != nil {
		return err
	}
	primary, err := startServer(cfg, "trace-primary", "-shards", "1", "-load", basePath,
		"-wal", walDir, "-fsync", "always", "-replicate-listen", replAddr)
	if err != nil {
		return err
	}
	defer primary.stop()
	follower, err := startServer(cfg, "trace-follower", "-shards", "1", "-retain", "64", "-replicate-from", replAddr)
	if err != nil {
		return err
	}
	defer follower.stop()
	pst, err := c.stats(primary)
	if err != nil {
		return err
	}
	if pst.Durability == nil {
		return errors.New("replica rung: the primary reports no durability block")
	}
	if err := waitEpoch(c, follower, pst.Epoch, 60*time.Second); err != nil {
		return err
	}
	t = traffic{writeTo: primary, readFrom: follower, readRate: 500, maxWrites: n, feed: true}
	o, err = drive(long, s, t, bodies, pst.Epoch)
	if err != nil {
		return err
	}
	writeSpans(r, o)
	pst2, err := c.stats(primary)
	if err != nil {
		return err
	}
	if err := waitEpoch(c, follower, pst2.Epoch, 30*time.Second); err != nil {
		return err
	}
	fst, err := c.stats(follower)
	if err != nil {
		return err
	}
	step := (pst2.Epoch - pst.Epoch) / uint64(max(len(o.writes), 1))
	var sent []time.Duration
	var target []uint64
	for k, w := range o.writes {
		sent = append(sent, w.sent)
		target = append(target, pst.Epoch+step*uint64(k+1))
	}
	delays, unmatched := visibility(sent, target, o.feedSeen)
	var afterAck []float64
	for k, dl := range delays {
		if dl >= 0 {
			afterAck = append(afterAck, float64(dl-(o.writes[k].acked-o.writes[k].sent)))
		}
	}
	r.gate(unmatched == 0, "replica rung: %d writes never reached the follower's feed", unmatched)
	r.set("replica.visible_after_ack_ms_p50", "ms", median(afterAck)/1e6)
	if pst2.Replication != nil && pst2.Replication.Feeder != nil && fst.Replication != nil && fst.Replication.Follower != nil {
		fol := fst.Replication.Follower
		r.set("replica.records_per_round", "count", float64(fol.RecordsApplied)/float64(max(fol.ApplyRounds, 1)))
		r.set("replica.bytes_per_edge", "B/edge", float64(pst2.Replication.Feeder.BytesShipped)/float64(2*n*s.batch))
	} else {
		r.gate(false, "replica rung: /stats lacks the replication blocks")
	}
	r.set("feed.events_per_epoch", "count", float64(fst.Feed.Events)/float64(max(fst.Feed.Epochs, 1)))
	r.set("feed.gaps", "count", float64(o.gaps+int(fst.Feed.Gaps)))
	r.Failed += int64(o.gaps)
	r.gate(o.gaps == 0 && fst.Feed.Gaps == 0, "replica rung: %d gap markers on the stream, %d counted by the follower's feed", o.gaps, fst.Feed.Gaps)

	// The follower serves byte-identical reads of every vertex at the
	// primary's final epoch, and the log holds exactly the acknowledged
	// writes.
	all := make([]uint32, s.n)
	for i := range all {
		all[i] = uint32(i)
	}
	body := bulkBody(all, int64(pst2.Epoch))
	pb, perr := c.do("POST", primary.base+"/coreness/bulk", body, nil)
	fb, ferr := c.do("POST", follower.base+"/coreness/bulk", body, nil)
	r.gate(perr == nil && ferr == nil && string(pb) == string(fb),
		"replica rung: primary and follower differ at epoch %d (%v, %v)", pst2.Epoch, perr, ferr)
	acked := 0
	for _, w := range o.writes {
		if w.ok {
			acked++
		}
	}
	if pst2.Durability == nil {
		r.gate(false, "replica rung: the primary's final /stats has no durability block")
	} else {
		logged := pst2.Durability.LoggedBatches - pst.Durability.LoggedBatches
		r.gate(logged == uint64(acked), "replica rung: logged %d batches for %d acknowledged writes", logged, acked)
	}
	return nil
}

// writeSpans checks an HTTP rung's writes and returns their spans in op
// order.
func writeSpans(r *result, o *outcome) []time.Duration {
	spans := make([]time.Duration, len(o.writes))
	for k, w := range o.writes {
		spans[k] = w.acked - w.sent
		r.Attempted++
		if !w.ok {
			r.Failed++
		}
	}
	r.Attempted += int64(o.point.count() + o.bulk.count() + o.bulkAt.count())
	r.Failed += o.readFails
	if o.firstErr != "" {
		r.gate(false, "HTTP rung: %s", o.firstErr)
	}
	return spans
}
