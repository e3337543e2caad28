package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailLevelNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {1000000, 0.99999},
	}
	for _, c := range cases {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if !supports(100, 0.9) || supports(99, 0.9) || supports(999, 0.99) {
		t.Error("supports disagrees with tailLevel")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var l lat
	for i := 1; i <= 100; i++ {
		l.add(time.Duration(i) * time.Millisecond) // all above the linear range
	}
	if got := l.quantile(0.5); got != float64(50*time.Millisecond) {
		t.Errorf("p50 = %g, want 50ms", got)
	}
	if got := l.quantile(0.9); got != float64(90*time.Millisecond) {
		t.Errorf("p90 = %g, want 90ms", got)
	}
	// Inside a one-nanosecond bucket the samples spread over the nanosecond.
	var b lat
	for i := 0; i < 4; i++ {
		b.add(7)
	}
	b.add(9)
	if got := b.quantile(0.5); got != 7+2.5/4 {
		t.Errorf("bucketed p50 = %g, want %g", got, 7+2.5/4)
	}
	if got := b.quantile(1); got != 9.5 {
		t.Errorf("bucketed max = %g, want 9.5", got)
	}
	var empty lat
	if !math.IsNaN(empty.quantile(0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestSeriesIsMedianOverSubWindows(t *testing.T) {
	s := newSeries(5 * time.Second)
	for part, ms := range []int{10, 11, 500, 12, 13} { // one stalled sub-window
		for i := 0; i < 10; i++ {
			s.add(time.Duration(part)*time.Second, time.Duration(ms)*time.Millisecond)
		}
	}
	if got := s.quantile(0.5); got != float64(12*time.Millisecond) {
		t.Errorf("series p50 = %v, want 12ms", time.Duration(got))
	}
	if s.count() != 50 {
		t.Errorf("count = %d, want 50", s.count())
	}
}

// A handler that stalls once must raise the latency of the requests that
// were due while it stalled, since the generator's connection was busy.
func TestPacerChargesQueuedRequestsFromDueTime(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 5 {
			time.Sleep(100 * time.Millisecond)
		}
	}))
	defer srv.Close()
	c := newClient(5 * time.Second)
	defer c.close()

	const n, interval = 20, 10 * time.Millisecond
	p := &pacer{start: time.Now(), interval: interval}
	charged := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		_, from, _ := p.next(i)
		if _, err := c.do("GET", srv.URL, nil, nil); err != nil {
			t.Fatal(err)
		}
		done := time.Now()
		p.done(done)
		charged[i] = done.Sub(from)
	}
	if charged[4] < 100*time.Millisecond {
		t.Errorf("the stalled request was charged %v, want >= 100ms", charged[4])
	}
	// Requests 5..9 were due while request 4 stalled; each waited for it,
	// so each is charged at least the rest of the stall after its due time.
	for i := 5; i <= 9; i++ {
		if min := time.Duration(100-10*(i-4)-5) * time.Millisecond; charged[i] < min {
			t.Errorf("request %d, queued behind the stall, was charged %v, want >= %v", i, charged[i], min)
		}
	}
	if charged[n-1] > 50*time.Millisecond {
		t.Errorf("after the backlog drained a request was charged %v", charged[n-1])
	}
}

func TestSelfTimeIsSpanMinusRungBelow(t *testing.T) {
	upper := []time.Duration{10, 20, 30, 40}
	lower := []time.Duration{4, 5, 6}
	got := selfTimes(upper, lower)
	want := []float64{6, 15, 24}
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selfTimes = %v, want %v", got, want)
		}
	}
	if m := median(got); m != 15 {
		t.Errorf("median self time = %g, want 15", m)
	}
}

// A write whose epoch produced no feed message is matched to the first
// message at a higher epoch; one never followed by any message is
// unmatched.
func TestVisibilityMatchesFirstEpochAtOrAbove(t *testing.T) {
	ms := time.Millisecond
	sent := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms}
	target := []uint64{2, 4, 6, 8}
	seen := []obs{ // epochs 4 and 8 moved no coreness: no message
		{at: 5 * ms, epoch: 2},
		{at: 27 * ms, epoch: 5},
		{at: 26 * ms, epoch: 6}, // arrival order is what counts
	}
	delays, unmatched := visibility(sent, target, seen)
	want := []time.Duration{5 * ms, 16 * ms, 6 * ms, -1}
	for i := range want {
		if delays[i] != want[i] {
			t.Errorf("write %d: delay %v, want %v", i, delays[i], want[i])
		}
	}
	if unmatched != 1 {
		t.Errorf("unmatched = %d, want 1", unmatched)
	}
}

func TestHistoryMapsEpochsToStreamStates(t *testing.T) {
	h := &history{e0: 10, ends: []uint64{12, 14}} // two epochs per write
	cases := []struct {
		e      uint64
		k      int
		mid    bool
		inside bool
	}{
		{10, 0, false, true}, {11, 0, true, true}, {12, 1, false, true},
		{13, 1, true, true}, {14, 2, false, true}, {15, 0, false, false}, {9, 0, false, false},
	}
	for _, c := range cases {
		k, mid, ok := h.stateAt(c.e)
		if ok != c.inside || (ok && (k != c.k || mid != c.mid)) {
			t.Errorf("stateAt(%d) = %d,%v,%v want %d,%v,%v", c.e, k, mid, ok, c.k, c.mid, c.inside)
		}
	}
}

func TestStreamKeepsTheWindowAndIsSeeded(t *testing.T) {
	a, b := newStream(7, 100, true), newStream(7, 100, true)
	if a.fingerprint("w") != b.fingerprint("w") {
		t.Fatal("same seed, different inputs")
	}
	if a.fingerprint("w") == newStream(8, 100, true).fingerprint("w") {
		t.Fatal("different seeds, same inputs")
	}
	live := map[[2]uint32]bool{}
	for _, e := range a.base() {
		live[[2]uint32{e.U, e.V}] = true
	}
	for k := 0; k < a.period()+3; k++ {
		ins, del := a.op(k)
		for _, e := range del {
			if !live[[2]uint32{e.U, e.V}] {
				t.Fatalf("op %d deletes an edge that is not live", k)
			}
			delete(live, [2]uint32{e.U, e.V})
		}
		for _, e := range ins {
			if live[[2]uint32{e.U, e.V}] {
				t.Fatalf("op %d inserts a live edge", k)
			}
			live[[2]uint32{e.U, e.V}] = true
		}
		if len(live) != windowEdges {
			t.Fatalf("after op %d: %d live edges, want %d", k, len(live), windowEdges)
		}
	}
	if got := a.live(a.period()+3, false); len(got) != windowEdges || !live[[2]uint32{got[0].U, got[0].V}] {
		t.Fatal("live() disagrees with the replayed ops")
	}
}

// An open-loop writer idles between writes; throughput counts only the
// time a write was outstanding, and a write queued behind the previous one
// is busy only from that one's ack.
func TestThroughputIsOverBusyTime(t *testing.T) {
	ms := time.Millisecond
	var writes []writeRec
	for part := 0; part < parts; part++ { // one pair per one-second sub-window
		base := time.Duration(part) * time.Second
		writes = append(writes,
			writeRec{sent: base, acked: base + 50*ms, edges: 1000, ok: true},
			// Due while the first ran: busy from its ack, 50 ms more.
			writeRec{sent: base + 10*ms, acked: base + 100*ms, edges: 1000, ok: true})
	}
	r := newResult()
	reportWrites(r, writes, parts*time.Second)
	if got := r.Metrics["update_edges_per_s"].Value; math.Abs(got-20000) > 1e-6 {
		t.Errorf("update_edges_per_s = %g, want 20000 (2000 edges per 100 ms busy)", got)
	}
	if r.Attempted != 2*parts || r.Failed != 0 {
		t.Errorf("attempted %d failed %d, want %d and 0", r.Attempted, r.Failed, 2*parts)
	}
}

func TestReservoirKeepsGroupsWholeAndBounded(t *testing.T) {
	k := newSamples(1)
	vs := make([]uint32, bulkSize)
	est := make([]float64, bulkSize)
	for i := 0; i < 4*keptBulks; i++ {
		for j := range vs {
			vs[j] = uint32(i*bulkSize + j)
		}
		k.bulk(vs, est, uint64(i))
	}
	buf := k.bulks.buf
	if len(buf) != keptBulks*bulkSize {
		t.Fatalf("kept %d bulk samples, want %d", len(buf), keptBulks*bulkSize)
	}
	late := 0
	for g := 0; g < keptBulks; g++ {
		grp := buf[g*bulkSize : (g+1)*bulkSize]
		if !grp[0].anchor || int(grp[0].v) != int(grp[0].lo)*bulkSize {
			t.Fatalf("group %d does not start at its anchor", g)
		}
		for j, sm := range grp {
			if sm.lo != grp[0].lo || int(sm.v) != int(grp[0].v)+j {
				t.Fatalf("group %d mixes bulk reads", g)
			}
		}
		if grp[0].lo >= keptBulks {
			late++
		}
	}
	// Uniform over 4*keptBulks offers: about three quarters come late.
	if late < keptBulks/2 {
		t.Errorf("only %d of %d kept groups come after the reservoir filled", late, keptBulks)
	}
	for i := 0; i < 2*keptPoints; i++ {
		k.point(readSample{v: uint32(i)})
	}
	if got := len(k.all()); got != keptPoints+keptBulks*bulkSize {
		t.Errorf("all() = %d samples, want %d", got, keptPoints+keptBulks*bulkSize)
	}
}
