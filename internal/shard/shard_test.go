package shard

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"kcore/internal/cplds"
	"kcore/internal/exact"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/lds"
)

func defaultP() lds.Params { return lds.DefaultParams() }

// provableBound is the end-to-end bound on the ratio between an estimate
// and the exact coreness: the (2+3/λ)(1+δ) approximation factor times the
// extra (1+δ) slack of the level-to-estimate rounding (same bound the PLDS
// tests assert).
func provableBound(p lds.Params) float64 {
	return p.ApproxFactor() * (1 + p.Delta)
}

func ratioError(est float64, k int32) float64 {
	kk := math.Max(float64(k), 1)
	ee := math.Max(est, 1)
	return math.Max(ee/kk, kk/ee)
}

func TestShardOfInRangeAndStable(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		e := New(1000, p, defaultP())
		for v := uint32(0); v < 1000; v++ {
			s := e.ShardOf(v)
			if s < 0 || s >= p {
				t.Fatalf("P=%d: ShardOf(%d) = %d out of range", p, v, s)
			}
			if s != e.ShardOf(v) {
				t.Fatalf("P=%d: ShardOf(%d) unstable", p, v)
			}
		}
	}
	// The hash should actually spread vertices across shards.
	e := New(1000, 4, defaultP())
	counts := make([]int, 4)
	for v := uint32(0); v < 1000; v++ {
		counts[e.ShardOf(v)]++
	}
	for s, c := range counts {
		if c < 100 {
			t.Fatalf("shard %d owns only %d of 1000 vertices", s, c)
		}
	}
}

func TestSingleShardMatchesCPLDS(t *testing.T) {
	const n = 300
	edges := gen.ChungLu(n, 2500, 2.3, 7)
	e := New(n, 1, defaultP())
	c := cplds.New(n, defaultP())
	for _, b := range gen.Batches(edges, 400) {
		e.Insert(b)
		c.InsertBatch(b)
	}
	e.Delete(edges[:800])
	c.DeleteBatch(edges[:800])
	for v := uint32(0); v < n; v++ {
		if got, want := e.Read(v), c.Read(v); got != want {
			t.Fatalf("vertex %d: sharded P=1 estimate %v, single engine %v", v, got, want)
		}
	}
	if got, want := e.NumEdges(), c.Graph().NumEdges(); got != want {
		t.Fatalf("edge count %d, want %d", got, want)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAppliedCountsMatchSingleEngineSemantics(t *testing.T) {
	const n = 200
	e := New(n, 4, defaultP())

	if got := e.Insert([]graph.Edge{{U: 1, V: 2}, {U: 2, V: 1}, {U: 3, V: 3}, {U: 5, V: 9999}}); got != 1 {
		t.Fatalf("insert with dup/self-loop/out-of-range applied %d, want 1", got)
	}
	if got := e.Insert([]graph.Edge{{U: 1, V: 2}, {U: 2, V: 3}}); got != 1 {
		t.Fatalf("re-insert applied %d, want 1", got)
	}
	if got := e.Delete([]graph.Edge{{U: 1, V: 2}, {U: 7, V: 8}}); got != 1 {
		t.Fatalf("delete applied %d, want 1", got)
	}
	if got := e.NumEdges(); got != 1 {
		t.Fatalf("NumEdges %d, want 1", got)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDedupesInsertDeletePairs(t *testing.T) {
	const n = 100
	for _, p := range []int{1, 4} {
		e := New(n, p, defaultP())

		// Same edge in both lists of one call: the insertion sub-batch
		// adds it, then the deletion sub-batch removes it (paper §2).
		ins, del := e.Apply([]graph.Edge{{U: 1, V: 2}}, []graph.Edge{{U: 2, V: 1}})
		if ins != 1 || del != 1 {
			t.Fatalf("P=%d: insert+delete of absent edge applied (%d,%d), want (1,1)", p, ins, del)
		}
		if e.LocalGraph(e.ShardOf(1)).HasEdge(1, 2) {
			t.Fatalf("P=%d: edge survived an insert+delete pair", p)
		}

		// Present edge: the insertion is a no-op, the deletion removes it.
		e.Insert([]graph.Edge{{U: 1, V: 2}})
		ins, del = e.Apply([]graph.Edge{{U: 1, V: 2}}, []graph.Edge{{U: 1, V: 2}})
		if ins != 0 || del != 1 {
			t.Fatalf("P=%d: insert+delete of present edge applied (%d,%d), want (0,1)", p, ins, del)
		}
		if got := e.NumEdges(); got != 0 {
			t.Fatalf("P=%d: NumEdges %d, want 0", p, got)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
	}
}

// TestUpdateContract pins the update contract every shard count shares:
// an edge named in both lists of a call is inserted, then deleted; calls
// queued behind an in-flight round coalesce into one round, in which the
// latest call naming an edge contributes its insertion and/or deletion of
// it; a call without a valid edge commits no epoch; and Batches counts
// rounds, not sub-batches. Each case runs on vertices of one shard (exact
// epoch and round counts) and on vertices spread over the shards.
func TestUpdateContract(t *testing.T) {
	const n = 64
	type call struct{ ins, del []graph.Edge }
	type counts struct{ ins, del int }
	es := func(ids ...uint32) []graph.Edge {
		var out []graph.Edge
		for i := 0; i < len(ids); i += 2 {
			out = append(out, graph.Edge{U: ids[i], V: ids[i+1]})
		}
		return out
	}
	cases := []struct {
		name   string
		pre    []graph.Edge
		calls  []call // queued together, so several calls coalesce
		want   []counts
		final  []graph.Edge // the edges present afterwards
		epochs uint64       // with every edge on one shard
	}{
		{name: "insert then delete of an absent edge",
			calls: []call{{ins: es(1, 2), del: es(2, 1)}}, want: []counts{{1, 1}}, epochs: 2},
		{name: "insert then delete of a present edge", pre: es(1, 2),
			calls: []call{{ins: es(1, 2), del: es(1, 2)}}, want: []counts{{0, 1}}, epochs: 2},
		{name: "duplicates within a list",
			calls: []call{{ins: es(1, 2, 2, 1, 1, 2)}}, want: []counts{{1, 0}}, final: es(1, 2), epochs: 1},
		{name: "invalid edges only",
			calls: []call{{ins: es(3, 3, 0, n), del: es(n+1, 1)}}, want: []counts{{0, 0}}},
		{name: "empty call", calls: []call{{}}, want: []counts{{0, 0}}},
		{name: "invalid insertions beside a deletion", pre: es(1, 2),
			calls: []call{{ins: es(3, 3), del: es(1, 2)}}, want: []counts{{0, 1}}, epochs: 1},
		{name: "concurrent calls coalesce, latest wins", pre: es(3, 4),
			calls: []call{
				{ins: es(1, 2, 5, 6)},
				{del: es(2, 1, 3, 4)},
				{ins: es(7, 8, 1, 2), del: es(5, 6, 8, 7)},
			},
			want: []counts{{0, 0}, {0, 1}, {2, 1}}, final: es(1, 2), epochs: 2},
	}
	for _, p := range []int{1, 4} {
		for _, spread := range []bool{false, true} {
			for _, tc := range cases {
				e := New(n, p, defaultP())
				// Map the case's vertex ids onto ten vertices of one shard,
				// or onto themselves; out-of-range ids stay out of range.
				var vs []uint32
				for v := uint32(0); len(vs) < 10; v++ {
					if spread || e.ShardOf(v) == e.ShardOf(1) {
						vs = append(vs, v)
					}
				}
				remap := func(edges []graph.Edge) []graph.Edge {
					out := make([]graph.Edge, len(edges))
					for i, ed := range edges {
						out[i] = ed
						if ed.U < uint32(len(vs)) {
							out[i].U = vs[ed.U]
						}
						if ed.V < uint32(len(vs)) {
							out[i].V = vs[ed.V]
						}
					}
					return out
				}
				e.Insert(remap(tc.pre))
				epoch0, batches0 := e.Epoch(), e.Batches()
				before := e.Stats()
				local0 := make([]uint64, p)
				for si := range local0 {
					local0[si] = e.LocalCPLDS(si).Epoch()
				}

				got := make([]counts, len(tc.calls))
				var wg sync.WaitGroup
				e.Quiesce(func() {
					for i, c := range tc.calls {
						queued := e.queued()
						wg.Add(1)
						go func() {
							defer wg.Done()
							got[i].ins, got[i].del = e.Apply(remap(c.ins), remap(c.del))
						}()
						for len(tc.calls) > 1 && e.queued() == queued {
							runtime.Gosched()
						}
					}
				})
				wg.Wait()

				name := fmt.Sprintf("P=%d spread=%v %s", p, spread, tc.name)
				if !slices.Equal(got, tc.want) {
					t.Fatalf("%s: per-call counts %v, want %v", name, got, tc.want)
				}
				want := remap(tc.final)
				for i := range want {
					want[i] = want[i].Canon()
				}
				slices.SortFunc(want, func(a, b graph.Edge) int {
					return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
				})
				if g := e.GlobalEdges(); !slices.Equal(g, want) {
					t.Fatalf("%s: final edges %v, want %v", name, g, want)
				}
				if err := e.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				epochs, rounds := e.Epoch()-epoch0, e.Batches()-batches0
				if (epochs == 0) != (tc.epochs == 0) || (rounds == 0) != (epochs == 0) {
					t.Fatalf("%s: %d epochs in %d rounds, want %d epochs", name, epochs, rounds, tc.epochs)
				}
				if !spread && (epochs != tc.epochs || rounds != min(tc.epochs, 1)) {
					t.Fatalf("%s: %d epochs in %d rounds, want %d in %d", name, epochs, rounds, tc.epochs, min(tc.epochs, 1))
				}
				// Each shard commits at most one round of at most two
				// sub-batches, and a round only with an epoch.
				for si, st := range e.Stats() {
					r, le := st.Batches-before[si].Batches, e.LocalCPLDS(si).Epoch()-local0[si]
					if r > 1 || le > 2 || (r == 1) != (le > 0) {
						t.Fatalf("%s: shard %d committed %d epochs in %d rounds", name, si, le, r)
					}
				}
			}
		}
	}
}

// queued returns how many submissions have been queued across the shards.
func (e *Engine) queued() (n uint64) {
	for _, s := range e.shards {
		s.qmu.Lock()
		n += s.enqueued
		s.qmu.Unlock()
	}
	return n
}

func TestMixedStreamMirrorsStayConsistent(t *testing.T) {
	const n = 250
	rng := rand.New(rand.NewSource(11))
	for _, p := range []int{2, 4} {
		e := New(n, p, defaultP())
		for round := 0; round < 12; round++ {
			var ins, del []graph.Edge
			for i := 0; i < 120; i++ {
				ed := graph.Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
				if rng.Intn(3) == 0 {
					del = append(del, ed)
				} else {
					ins = append(ins, ed)
				}
			}
			e.Apply(ins, del)
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("P=%d round %d: %v", p, round, err)
			}
		}
		// The reassembled global graph must be internally consistent too.
		g := graph.FromEdges(n, e.GlobalEdges())
		if err := g.Validate(); err != nil {
			t.Fatalf("P=%d: global graph: %v", p, err)
		}
		if g.NumEdges() != e.NumEdges() {
			t.Fatalf("P=%d: global %d edges, counter %d", p, g.NumEdges(), e.NumEdges())
		}
	}
}

// TestShardedApproximationBounds is the determinism/equivalence harness:
// one fixed update stream is replayed at P = 1, 2, 4 and 8, and at every
// shard count the estimate of each vertex must satisfy the paper's
// provable bound against the exact coreness of its owning shard's
// subgraph (for P = 1 that is the global graph), and must never exceed
// the bound times the global exact coreness (the local coreness of a
// subgraph lower-bounds the global one).
func TestShardedApproximationBounds(t *testing.T) {
	const n = 400
	edges := gen.ChungLu(n, 3200, 2.3, 42)
	bound := provableBound(defaultP()) + 1e-9

	for _, p := range []int{1, 2, 4, 8} {
		e := New(n, p, defaultP())
		for _, b := range gen.Batches(edges, 500) {
			e.Insert(b)
		}
		e.Delete(edges[:1000])
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		globalCore := exact.Parallel(e.Snapshot())
		for s := 0; s < p; s++ {
			localCore := exact.Parallel(e.LocalGraph(s).Snapshot())
			for v := uint32(0); v < n; v++ {
				if e.ShardOf(v) != s || localCore[v] == 0 {
					continue
				}
				est := e.Read(v)
				if r := ratioError(est, localCore[v]); r > bound {
					t.Fatalf("P=%d shard %d vertex %d: estimate %.2f vs local coreness %d (ratio %.2f > %.2f)",
						p, s, v, est, localCore[v], r, bound)
				}
				if est > bound*math.Max(float64(globalCore[v]), 1) {
					t.Fatalf("P=%d vertex %d: estimate %.2f exceeds bound×global coreness %d",
						p, v, est, globalCore[v])
				}
			}
		}
	}
}

// TestConcurrentReadersVsBatchWriters is the race/linearizability stress
// harness: goroutine readers race concurrent batch writers (run it under
// -race). Throughout the run every read must return a well-formed estimate
// — a value the level structure can actually produce, i.e. never a torn
// level — and at quiescent checkpoints the estimates must satisfy the
// paper's error bound against exact coreness of the shard subgraphs.
func TestConcurrentReadersVsBatchWriters(t *testing.T) {
	const n = 200
	rounds, writers, readers := 16, 3, 4
	if testing.Short() {
		rounds = 6
	}
	e := New(n, 4, defaultP())

	// The lattice of estimates the level structure can emit: one value per
	// level. Any read outside this set observed a torn/intermediate state.
	valid := make(map[float64]bool)
	s := e.LocalCPLDS(0).S
	for l := int32(0); l <= s.MaxLevel(); l++ {
		valid[s.EstimateFromLevel(l)] = true
	}

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		rng := rand.New(rand.NewSource(int64(100 + r)))
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := uint32(rng.Intn(n))
				est := e.Read(v)
				if !valid[est] {
					t.Errorf("torn read: vertex %d returned %v, not a level estimate", v, est)
					return
				}
			}
		}()
	}

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		rng := rand.New(rand.NewSource(int64(7 + w)))
		go func() {
			defer writerWG.Done()
			for round := 0; round < rounds; round++ {
				var ins, del []graph.Edge
				for i := 0; i < 100; i++ {
					ed := graph.Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
					if rng.Intn(4) == 0 {
						del = append(del, ed)
					} else {
						ins = append(ins, ed)
					}
				}
				e.Apply(ins, del)
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if t.Failed() {
		return
	}

	// Quiescent checkpoint: structural invariants plus the paper's error
	// bound for every vertex against its shard subgraph.
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	bound := provableBound(defaultP()) + 1e-9
	for si := 0; si < e.NumShards(); si++ {
		localCore := exact.Parallel(e.LocalGraph(si).Snapshot())
		for v := uint32(0); v < n; v++ {
			if e.ShardOf(v) != si || localCore[v] == 0 {
				continue
			}
			if r := ratioError(e.Read(v), localCore[v]); r > bound {
				t.Fatalf("shard %d vertex %d: ratio %.2f > %.2f after stress", si, v, r, bound)
			}
		}
	}
}

// TestConcurrentDisjointInsertsAllLand checks that racing submissions are
// all applied exactly once: writers insert disjoint edge sets concurrently
// and the union must come out, with per-caller counts adding up.
func TestConcurrentDisjointInsertsAllLand(t *testing.T) {
	const n = 600
	const perWriter = 120
	const writers = 5
	e := New(n, 4, defaultP())
	counts := make([]int, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			edges := make([]graph.Edge, 0, perWriter)
			for i := 0; i < perWriter; i++ {
				// Disjoint vertex ranges per writer => disjoint edges.
				base := uint32(w * perWriter)
				edges = append(edges, graph.Edge{U: base + uint32(i%perWriter), V: base + uint32((i+1)%perWriter)})
			}
			counts[w] = e.Insert(edges)
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	if int64(total) != e.NumEdges() {
		t.Fatalf("per-caller counts sum to %d, engine has %d edges", total, e.NumEdges())
	}
	if got := len(e.GlobalEdges()); int64(got) != e.NumEdges() {
		t.Fatalf("global edge list has %d edges, counter %d", got, e.NumEdges())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShardStats(t *testing.T) {
	const n = 600
	edges := gen.ChungLu(n, 3000, 2.3, 41)
	e := New(n, 4, defaultP())
	e.Insert(edges)
	half := edges[:len(edges)/2]
	e.Delete(half)

	stats := e.Stats()
	if len(stats) != 4 {
		t.Fatalf("got %d stats entries, want 4", len(stats))
	}
	var owned int
	var primary, local, inserted, deleted int64
	var batches uint64
	for i, s := range stats {
		if s.Shard != i {
			t.Fatalf("entry %d has shard id %d", i, s.Shard)
		}
		if s.OwnedVertices != e.owned[i] {
			t.Fatalf("shard %d owned %d != %d", i, s.OwnedVertices, e.owned[i])
		}
		if s.LocalEdges < s.PrimaryEdges {
			t.Fatalf("shard %d local %d < primary %d", i, s.LocalEdges, s.PrimaryEdges)
		}
		owned += s.OwnedVertices
		primary += s.PrimaryEdges
		local += s.LocalEdges
		inserted += s.Inserted
		deleted += s.Deleted
		batches += s.Batches
	}
	if owned != n {
		t.Fatalf("owned vertices sum %d != %d", owned, n)
	}
	if primary != e.NumEdges() {
		t.Fatalf("primary edges sum %d != global %d", primary, e.NumEdges())
	}
	if inserted == 0 || deleted == 0 || batches < 2 {
		t.Fatalf("cumulative counters not maintained: ins=%d del=%d batches=%d",
			inserted, deleted, batches)
	}
	// local >= primary overall, with equality only if no cut edges exist.
	if local < primary {
		t.Fatalf("local edges sum %d < primary sum %d", local, primary)
	}
	// CheckInvariants cross-checks the stats counters against a recount.
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShardStatsConcurrentWithUpdates(t *testing.T) {
	// Stats must be safe to read while submissions race (exercised under
	// -race in CI).
	const n = 400
	edges := gen.ChungLu(n, 2000, 2.3, 42)
	e := New(n, 2, defaultP())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range e.Stats() {
				_ = s.LocalEdges
			}
		}
	}()
	for i := 0; i+100 <= len(edges); i += 100 {
		e.Insert(edges[i : i+100])
	}
	close(stop)
	wg.Wait()
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
