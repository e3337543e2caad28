package kcore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"kcore/internal/cplds"
	"kcore/internal/exact"
	"kcore/internal/feed"
	"kcore/internal/graph"
	"kcore/internal/lds"
	"kcore/internal/replica"
	"kcore/internal/shard"
	"kcore/internal/wal"
)

// engine is the single dispatch point between the two Decomposition
// backends: the single-CPLDS engine (the paper's data structure, full
// global approximation guarantee, concurrent updaters serialize) and the
// sharded engine (hash-partitioned CPLDS instances behind a
// batch-coalescing scheduler, concurrent updaters coalesce, per-shard
// guarantee). Every public Decomposition and View method routes through
// this interface; no method branches on the backend.
//
// The read triple mirrors the paper's three protocols (linearizable
// lock-free, instantaneous NonSync, blocking SyncReads); the pinned
// variants additionally certify that the returned values belong to one
// committed epoch — the consistency unit Views are built on. The quiescent
// group (Degree, IncidentEdges, Snapshot, ExactCoreness, CheckInvariants)
// must not run concurrently with update batches in either backend.
type engine interface {
	NumVertices() int
	NumShards() int
	NumEdges() int64
	ApproxFactor() float64
	Batches() uint64
	Epoch() uint64

	Insert(edges []graph.Edge) int
	Delete(edges []graph.Edge) int
	Apply(insertions, deletions []graph.Edge) (inserted, deleted int)

	Read(v uint32) float64
	ReadNonSync(v uint32) float64
	ReadSync(v uint32) float64
	ReadPinned(v uint32) (float64, uint64)
	ReadManyPinned(vs []uint32, out []float64) uint64
	ReadAllPinned(out []float64) uint64

	// SetRetainedEpochs configures multi-version retention; New calls it
	// exactly once, after WAL recovery (the retention logs initialize from
	// the recovered epochs). Quiescent use only.
	SetRetainedEpochs(n int)

	// SetEventHub attaches the change-feed hub: every committed batch's
	// coreness transitions are published to it, stamped with the
	// (cross-shard) epoch of the commit. nil detaches. Quiescent use only;
	// New calls it after SetRetainedEpochs.
	SetEventHub(h *feed.Hub)

	// The retained-read group serves exact reads at a *specific* committed
	// epoch — including retired ones, for as long as the multi-version
	// store retains (or a pin holds) their deltas. All are safe concurrent
	// with updates and deterministic per epoch; failures carry the typed
	// mvcc evicted/future errors.
	RetainedEpochs() int
	OldestReadableEpoch() uint64
	CheckEpoch(epoch uint64) error
	PinEpoch(epoch uint64) error
	UnpinEpoch(epoch uint64)
	ReadManyAt(vs []uint32, out []float64, epoch uint64) error
	ReadAllAt(out []float64, epoch uint64) error

	Degree(v uint32) int
	IncidentEdges(v uint32) []graph.Edge
	Snapshot() *graph.CSR
	ExactCoreness() []int32
	CheckInvariants() error
	Stats() []shard.Stats
}

// Both backends must satisfy the engine contract, and both must be
// drivable by the durability subsystem and the replication follower.
var (
	_ engine         = (*singleEngine)(nil)
	_ engine         = (*shard.Engine)(nil)
	_ wal.Engine     = (*singleEngine)(nil)
	_ wal.Engine     = (*shard.Engine)(nil)
	_ replica.Engine = (*singleEngine)(nil)
	_ replica.Engine = (*shard.Engine)(nil)
)

// singleEngine adapts one CPLDS to the engine interface. It also keeps the
// cumulative applied-edge counters the sharded engine tracks per shard, so
// Stats reports the same metrics in both modes, and the live edge count as
// an atomic, so NumEdges and Stats are safe concurrently with a batch.
type singleEngine struct {
	c               *cplds.CPLDS
	ins, del, edges atomic.Int64

	// mu serializes update calls: concurrent updaters queue on it (the
	// CPLDS runs one batch at a time), and the durability subsystem uses
	// it to quiesce the engine for snapshots.
	mu       sync.Mutex
	batchLog func(wal.Batch)
}

func newSingleEngine(n int, params lds.Params) *singleEngine {
	return &singleEngine{c: cplds.New(n, params)}
}

func (s *singleEngine) NumVertices() int      { return s.c.NumVertices() }
func (s *singleEngine) NumShards() int        { return 1 }
func (s *singleEngine) NumEdges() int64       { return s.edges.Load() }
func (s *singleEngine) ApproxFactor() float64 { return s.c.S.ApproxFactor() }
func (s *singleEngine) Batches() uint64       { return s.c.BatchNumber() }
func (s *singleEngine) Epoch() uint64         { return s.c.Epoch() }

func (s *singleEngine) Insert(edges []graph.Edge) int {
	ins, _ := s.apply(wal.Batch{Ins: edges, HasIns: true})
	return ins
}

func (s *singleEngine) Delete(edges []graph.Edge) int {
	_, del := s.apply(wal.Batch{Del: edges, HasDel: true})
	return del
}

func (s *singleEngine) Apply(insertions, deletions []graph.Edge) (inserted, deleted int) {
	return s.apply(wal.Batch{Ins: insertions, Del: deletions,
		HasIns: len(insertions) > 0, HasDel: len(deletions) > 0})
}

// apply runs one update call under the update lock — the insertion
// sub-batch, then the deletion sub-batch, each committing its own epoch
// (an empty sub-batch that is present still commits one, so recovery
// must reproduce it) — and logs the call as one record stamped with the
// final epoch, as the sharded engine logs one record per round.
func (s *singleEngine) apply(b wal.Batch) (inserted, deleted int) {
	if !b.HasIns && !b.HasDel {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	inserted, deleted = s.applyLocked(b)
	if s.batchLog != nil {
		b.Epoch = s.c.Epoch()
		s.batchLog(b)
	}
	return inserted, deleted
}

// applyLocked applies b's sub-batches and maintains the counters. The
// caller holds s.mu or is the single-threaded recovery path.
func (s *singleEngine) applyLocked(b wal.Batch) (inserted, deleted int) {
	if b.HasIns {
		inserted = s.c.InsertBatch(b.Ins)
		s.ins.Add(int64(inserted))
		s.edges.Add(int64(inserted))
	}
	if b.HasDel {
		deleted = s.c.DeleteBatch(b.Del)
		s.del.Add(int64(deleted))
		s.edges.Add(-int64(deleted))
	}
	return inserted, deleted
}

// --- wal.Engine (durability) ---

// SetBatchLog installs the per-call durability hook (nil uninstalls).
// Called before the engine serves updates, or under Quiesce.
func (s *singleEngine) SetBatchLog(fn func(wal.Batch)) { s.batchLog = fn }

// Quiesce runs f with the update lock held: no batch is in flight and
// none can start until f returns.
func (s *singleEngine) Quiesce(f func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f()
}

// ApplyLogged re-applies one logged record without re-logging it.
// Recovery and replication use only (the follower holds Quiesce).
func (s *singleEngine) ApplyLogged(b wal.Batch) { s.applyLocked(b) }

// ShardDurable captures the engine's durable state (there is exactly one
// shard). Must run inside a Quiesce section.
func (s *singleEngine) ShardDurable(int) wal.ShardState {
	st := wal.ShardState{
		Graph:    s.c.Graph().Snapshot(),
		Levels:   make([]int32, s.c.NumVertices()),
		Epoch:    s.c.Epoch(),
		Batches:  s.c.BatchNumber(),
		Inserted: s.ins.Load(),
		Deleted:  s.del.Load(),
	}
	s.c.Levels(st.Levels)
	return st
}

// ShardEpoch returns the committed epoch (there is exactly one shard).
func (s *singleEngine) ShardEpoch(int) uint64 { return s.c.Epoch() }

// RestoreShard restores the engine from a captured state. Recovery calls
// it on a fresh engine; replication bootstrap calls it on a live one via
// RestoreAll (the CPLDS restore is reader-safe).
func (s *singleEngine) RestoreShard(_ int, st wal.ShardState) error {
	if err := s.c.Restore(st.Graph, st.Levels, st.Epoch); err != nil {
		return err
	}
	s.ins.Store(st.Inserted)
	s.del.Store(st.Deleted)
	s.edges.Store(s.c.Graph().NumEdges())
	return nil
}

// RestoreAll restores the engine (one shard) under the update lock. Safe
// on a live engine serving concurrent reads — the follower-side entry
// point for replication bootstrap.
func (s *singleEngine) RestoreAll(states []wal.ShardState) error {
	if len(states) != 1 {
		return fmt.Errorf("kcore: restore of %d shard states into a single engine", len(states))
	}
	var err error
	s.Quiesce(func() { err = s.RestoreShard(0, states[0]) })
	return err
}

func (s *singleEngine) SetRetainedEpochs(n int) { s.c.SetRetainedEpochs(n) }

// SetEventHub attaches the change-feed hub. A single engine's local epoch
// is the global epoch, so events go out stamped exactly as extracted.
func (s *singleEngine) SetEventHub(h *feed.Hub) {
	if h == nil {
		s.c.SetEventSink(nil, nil)
		return
	}
	s.c.SetEventSink(h.Active, func(epoch uint64, events []feed.Event) {
		h.Publish(epoch, events)
	})
}

func (s *singleEngine) Read(v uint32) float64        { return s.c.Read(v) }
func (s *singleEngine) ReadNonSync(v uint32) float64 { return s.c.ReadNonSync(v) }
func (s *singleEngine) ReadSync(v uint32) float64    { return s.c.ReadSync(v) }

func (s *singleEngine) ReadPinned(v uint32) (float64, uint64) { return s.c.ReadPinned(v) }
func (s *singleEngine) ReadManyPinned(vs []uint32, out []float64) uint64 {
	return s.c.ReadManyPinned(vs, out)
}
func (s *singleEngine) ReadAllPinned(out []float64) uint64 { return s.c.ReadAllPinned(out) }

func (s *singleEngine) RetainedEpochs() int           { return s.c.RetainedEpochs() }
func (s *singleEngine) OldestReadableEpoch() uint64   { return s.c.OldestReadableEpoch() }
func (s *singleEngine) CheckEpoch(epoch uint64) error { return s.c.CheckEpoch(epoch) }
func (s *singleEngine) PinEpoch(epoch uint64) error   { return s.c.PinEpoch(epoch) }
func (s *singleEngine) UnpinEpoch(epoch uint64)       { s.c.UnpinEpoch(epoch) }

func (s *singleEngine) ReadManyAt(vs []uint32, out []float64, epoch uint64) error {
	return s.c.ReadManyAt(vs, out, epoch)
}
func (s *singleEngine) ReadAllAt(out []float64, epoch uint64) error {
	return s.c.ReadAllAt(out, epoch)
}

func (s *singleEngine) Degree(v uint32) int { return s.c.Graph().Degree(v) }

func (s *singleEngine) IncidentEdges(v uint32) []graph.Edge {
	var out []graph.Edge
	s.c.Graph().Neighbors(v, func(w uint32) bool {
		out = append(out, graph.Edge{U: v, V: w})
		return true
	})
	return out
}

func (s *singleEngine) Snapshot() *graph.CSR { return s.c.Graph().Snapshot() }

func (s *singleEngine) ExactCoreness() []int32 { return exact.Parallel(s.Snapshot()) }

func (s *singleEngine) CheckInvariants() error { return s.c.CheckInvariants() }

func (s *singleEngine) Stats() []shard.Stats {
	return []shard.Stats{{
		Shard:         0,
		OwnedVertices: s.c.NumVertices(),
		PrimaryEdges:  s.edges.Load(),
		LocalEdges:    s.edges.Load(),
		Batches:       s.c.BatchNumber(),
		Inserted:      s.ins.Load(),
		Deleted:       s.del.Load(),
	}}
}
