package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"kcore"
)

// setupReps is how many times each workload sets up anew; setup_s is the
// median.
const setupReps = 3

// maxGradedStates bounds the committed states whose reads one run grades
// against exact coreness.
const maxGradedStates = 16

// writeRec is one acknowledged (or failed) write.
type writeRec struct {
	sent, acked time.Duration // since the measured window opened
	edges       int           // edges the write applied
	ok          bool
	end         uint64 // epoch once the write committed, when known
}

// reportWrites sets the write metrics from the writes sent inside the
// window and counts them as attempted. writes are in the order they were
// sent on one connection.
func reportWrites(r *result, writes []writeRec, window time.Duration) {
	l := newSeries(window)
	// Throughput is edges applied per second of the writer's busy time, a
	// median over the sub-windows. A write is busy from its send, or from
	// the previous write's ack when it queued behind it, to its ack; an
	// open-loop writer's idle gaps are left out, so the rate is what the
	// service sustains rather than what the generator offers.
	var edges, busy [parts]float64
	var prevAck time.Duration
	for _, w := range writes {
		if w.sent >= window {
			continue
		}
		r.Attempted++
		i := min(int(w.sent/l.span), parts-1)
		busy[i] += (w.acked - max(w.sent, prevAck)).Seconds()
		prevAck = w.acked
		if !w.ok {
			r.Failed++
			l.add(w.sent, failLatency)
			continue
		}
		l.add(w.sent, w.acked-w.sent)
		edges[i] += float64(w.edges)
	}
	var rates []float64
	for i := range busy {
		if busy[i] > 0 {
			rates = append(rates, edges[i]/busy[i])
		}
	}
	n := l.count()
	r.gate(supports(n, 0.5), "only %d writes in the window; the median needs 20", n)
	r.set("write_ms_p50", "ms", l.quantile(0.5)/1e6)
	r.set("update_edges_per_s", "1/s", median(rates))
	fmt.Printf("# writes: %d in the window; whole-window p50 %.4g ms, tail p%.6g %.4g ms; sub-window p50s %.4g ms\n",
		n, l.all.quantile(0.5)/1e6, 100*tailLevel(n), l.all.quantile(tailLevel(n))/1e6, scaled(l.parts(0.5), 1e-6))
}

// reportReads sets the read latency metrics. Read tails are printed, not
// reported: on a busy two-CPU machine they swing with the scheduler.
func reportReads(r *result, point, bulk, bulkAt *series) {
	n := point.count()
	r.gate(supports(n, 0.9), "only %d point reads; p90 needs 100", n)
	r.gate(bulk.count() >= 20 && bulkAt.count() >= 20, "too few bulk reads (%d, %d at epoch-4)", bulk.count(), bulkAt.count())
	r.set("read_us_p50", "us", point.quantile(0.5)/1e3)
	r.set("bulk_us_p50", "us", bulk.quantile(0.5)/1e3)
	r.set("bulk_at_us_p50", "us", bulkAt.quantile(0.5)/1e3)
	fmt.Printf("# reads: %d point, p90 %.4g us, p99 %.4g us, tail p%.6g %.4g us (whole window); %d bulk, %d bulk at epoch-4\n",
		n, point.all.quantile(0.9)/1e3, point.all.quantile(0.99)/1e3,
		100*tailLevel(n), point.all.quantile(tailLevel(n))/1e3, bulk.count(), bulkAt.count())
	fmt.Printf("# reads: sub-window p50s %.4g us point, %.4g us bulk, %.4g us bulk at epoch-4\n",
		scaled(point.parts(0.5), 1e-3), scaled(bulk.parts(0.5), 1e-3), scaled(bulkAt.parts(0.5), 1e-3))
}

// scaled returns xs multiplied by f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// reportVisibility sets the write-to-visible metrics.
func reportVisibility(r *result, writes []writeRec, window time.Duration, seen []obs) {
	var sent []time.Duration
	var target []uint64
	for _, w := range writes {
		if w.sent < window && w.ok {
			sent = append(sent, w.sent)
			target = append(target, w.end)
		}
	}
	delays, unmatched := visibility(sent, target, seen)
	l := newSeries(window)
	for i, d := range delays {
		if d >= 0 {
			l.add(sent[i], d)
		}
	}
	r.gate(unmatched == 0, "%d writes never became visible", unmatched)
	r.set("visible_ms_p50", "ms", l.quantile(0.5)/1e6)
	n := l.count()
	fmt.Printf("# visible: %d writes; whole-window p50 %.4g ms, tail p%.6g %.4g ms\n",
		n, l.all.quantile(0.5)/1e6, 100*tailLevel(n), l.all.quantile(tailLevel(n))/1e6)
}

// reportErrors grades the sampled reads and sets read_err_mean.
func reportErrors(r *result, s *stream, h *history, kept *samples, bound float64) {
	mean, graded, bad, worst := gradeReads(s, h, kept.all(), bound, maxGradedStates)
	r.gate(graded > 0, "no read could be graded")
	r.gate(bad == 0, "%d of %d graded reads lie outside %.3g of exact coreness (last: %s)", bad, graded, bound, worst)
	r.Failed += int64(bad)
	r.set("read_err_mean", "ratio", mean)
	fmt.Printf("# error: %d reads graded against exact coreness, mean %.4f, %d outside the bound %.3g\n", graded, mean, bad, bound)
}

// setupChild names the flag with which childSetups starts perfbench to
// time one set-up of the engine and exit.
const setupChild = "setup-child"

// timeSetup loads the base graph into a fresh engine, prints the time it
// took and the edges loaded as JSON, and returns the exit code. It is
// what a set-up child runs.
func timeSetup(s *stream) int {
	runtime.GC()
	t0 := time.Now()
	d, err := kcore.New(s.n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	loaded := d.InsertEdges(s.base())
	took := time.Since(t0).Seconds()
	d.Close()
	out, _ := json.Marshal(map[string]float64{"setup_s": took, "loaded": float64(loaded)})
	fmt.Println(string(out))
	return 0
}

// childSetups times setupReps set-ups of the engine, each in a fresh
// process of its own, so that the median does not rest on the heap and
// placement of a single process.
func childSetups(cfg config, r *result) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		cmd := exec.Command(exe, "-"+setupChild, "-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10))
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %v", err)
		}
		var res struct {
			SetupS float64 `json:"setup_s"`
			Loaded int     `json:"loaded"`
		}
		if err := json.Unmarshal(out, &res); err != nil {
			return nil, fmt.Errorf("set-up child: %v", err)
		}
		r.gate(res.Loaded == windowEdges, "set-up loaded %d of %d edges", res.Loaded, windowEdges)
		setups = append(setups, res.SetupS)
	}
	return setups, nil
}

// runLib drives the public kcore API in process: one closed-loop writer
// applying 5k+5k sliding-window batches and one closed-loop reader of
// uniform vertices.
func runLib(cfg config, s *stream, r *result) error {
	setups, err := childSetups(cfg, r)
	if err != nil {
		return err
	}
	r.set("setup_s", "s", median(setups))

	// Every buffer the harness records into is allocated and touched
	// before the engine exists, so peak_rss_mb counts a fixed harness
	// share, printed here, on top of the engine's.
	window := time.Duration(cfg.seconds * float64(time.Second))
	point, bulk, bulkAt := newSeries(window).reserve(), newSeries(window).reserve(), newSeries(window).reserve()
	kept := newSamples(cfg.seed)
	writes := make([]writeRec, 1<<14)
	clear(writes)
	writes = writes[:0]
	seen := make([]obs, 1<<15)
	clear(seen)
	seen = seen[:0]
	out := make([]float64, bulkSize)
	debug.FreeOSMemory()
	fmt.Printf("# harness: %.4g MiB resident before the engine\n", procStatusMB("self", "VmRSS"))

	t0 := time.Now()
	d, err := kcore.New(s.n)
	if err != nil {
		return err
	}
	defer d.Close()
	loaded := d.InsertEdges(s.base())
	fmt.Printf("# set-ups: %.4g s, each in its own process; %.4g s for the measured engine\n", setups, time.Since(t0).Seconds())
	r.gate(loaded == windowEdges, "set-up loaded %d of %d edges", loaded, windowEdges)
	h := &history{e0: d.Epoch()}
	runtime.GC()

	var writing atomic.Bool
	writing.Store(true)
	start := time.Now()
	go func() {
		defer writing.Store(false)
		for k := 0; time.Since(start) < window; k++ {
			ins, del := s.op(k)
			t0 := time.Now()
			gi, gd := d.ApplyBatch(ins, del)
			t1 := time.Now()
			writes = append(writes, writeRec{
				sent: t0.Sub(start), acked: t1.Sub(start), edges: gi + gd,
				ok: gi == len(ins) && gd == len(del), end: d.Epoch(),
			})
		}
	}()

	var lastEpoch uint64
	var atErr error // the first failed read at epoch-4
	for i := 0; writing.Load(); i++ {
		v := s.reads[i&(readRing-1)]
		if i&255 != 0 {
			t0 := time.Now()
			d.Coreness(v)
			point.add(t0.Sub(start), time.Since(t0))
			continue
		}
		// Every 256th read is also offered for grading and notes the
		// committed epoch.
		lo := d.Epoch()
		t0 := time.Now()
		est := d.Coreness(v)
		t1 := time.Now()
		hi := d.Epoch()
		point.add(t0.Sub(start), t1.Sub(t0))
		kept.point(readSample{v: v, est: est, lo: lo, hi: hi})
		if hi > lastEpoch {
			seen = append(seen, obs{at: t1.Sub(start), epoch: hi})
			lastEpoch = hi
		}
		if i&1023 != 0 {
			continue
		}
		at := (i >> 10 * bulkSize) % (readRing - bulkSize)
		vs := s.reads[at : at+bulkSize]
		t0 = time.Now()
		ep := d.View().CorenessManyInto(vs, out)
		bulk.add(t0.Sub(start), time.Since(t0))
		kept.bulk(vs, out, ep)
		if e := d.Epoch(); e >= h.e0+4 {
			// Pinned, the read cannot lose its epoch to eviction if the
			// reader is descheduled while two more writes commit.
			t0 = time.Now()
			va, err := d.ViewAt(e - 4)
			if err == nil {
				err = va.Pin()
			}
			if err == nil {
				va.CorenessManyInto(vs, out)
				va.Release()
			}
			if err != nil {
				r.Failed++
				bulkAt.add(t0.Sub(start), failLatency)
				atErr = cmp.Or(atErr, err)
			} else {
				bulkAt.add(t0.Sub(start), time.Since(t0))
			}
			r.Attempted++
		}
		r.Attempted++
	}
	// The reader polls writing between reads, so this observation follows
	// the last commit by at most one read.
	seen = append(seen, obs{at: time.Since(start), epoch: d.Epoch()})
	r.Attempted += int64(point.count())
	r.set("peak_rss_mb", "MiB", procStatusMB("self", "VmHWM"))

	for _, w := range writes {
		h.ends = append(h.ends, w.end)
	}
	if atErr != nil {
		fmt.Printf("# reads at epoch-4: first failure: %v\n", atErr)
	}
	reportWrites(r, writes, window)
	reportReads(r, point, bulk, bulkAt)
	reportVisibility(r, writes, window, seen)
	reportErrors(r, s, h, kept, d.ApproxFactor())
	err = d.Check()
	r.gate(err == nil, "invariant check failed: %v", err)
	r.gate(d.NumEdges() == windowEdges, "live edge count %d, want %d", d.NumEdges(), windowEdges)
	return nil
}
