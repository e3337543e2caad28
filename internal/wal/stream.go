package wal

// Tail streaming: the primary-side surface of log-shipping replication.
//
// The WAL already observes the full applied-batch stream (onBatch runs
// inside each shard's one-updater section), and the replay-parity property
// means that stream *is* the state: a follower that starts from a
// consistent engine capture and applies every later batch in per-shard
// commit order is byte-identical to the primary. The tail hub below hands
// both halves to a subscriber atomically: Bootstrap captures every shard's
// durable state and registers the tail reader inside one quiesce section,
// so no batch can commit between the capture and the subscription — the
// reader's channel carries exactly the batches after the captured vector.
//
// Subscribers that cannot keep up are disconnected, not waited for: the
// publish path runs on the update hot path and must never block on a slow
// network peer. An overrun reader's channel is closed and Overrun reports
// it; the replication layer responds by re-bootstrapping.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"kcore/internal/graph"
)

// DefaultTailBuffer is the per-subscriber channel depth used when
// Bootstrap is called with buffer <= 0.
const DefaultTailBuffer = 4096

// DefaultRetainBatches is the retained-batch ring depth used when
// SetRetain is called with the feeder's zero-value option: how many of
// the newest committed batches the primary keeps in memory so that a
// reconnecting follower can Resume from its applied commit vector instead
// of re-bootstrapping the full snapshot.
const DefaultRetainBatches = 1024

// TailReader is one subscription to the live committed-batch stream.
// Batches arrive on C in per-shard commit order (the same linearization
// the log records); the edge slices are deep copies owned by the reader.
type TailReader struct {
	hub     *tailHub
	ch      chan Batch
	overrun atomic.Bool
	closed  bool // guarded by hub.mu
}

// C returns the batch channel. It is closed when the reader falls too far
// behind (check Overrun) or the hub shuts down.
func (r *TailReader) C() <-chan Batch { return r.ch }

// Overrun reports whether the subscription was dropped because the reader
// could not keep up with the commit rate.
func (r *TailReader) Overrun() bool { return r.overrun.Load() }

// Close unsubscribes. Idempotent; safe concurrent with publishes.
func (r *TailReader) Close() {
	r.hub.mu.Lock()
	defer r.hub.mu.Unlock()
	r.closeLocked()
}

func (r *TailReader) closeLocked() {
	if r.closed {
		return
	}
	r.closed = true
	delete(r.hub.subs, r)
	close(r.ch)
}

// tailHub fans the committed-batch stream out to subscribers and,
// when retention is enabled, keeps the newest retain batches in a ring so
// a reconnecting follower can resume from its applied commit vector. The
// zero value is ready to use (retention off).
type tailHub struct {
	mu     sync.Mutex
	subs   map[*TailReader]struct{}
	closed bool // closeAll ran: no new subscriptions

	// Retained ring: the newest `retain` published batches, in publish
	// order (which is per-shard commit order). low is the per-shard
	// low-water vector — every epoch <= low[si] has been evicted from the
	// ring (or predates retention being enabled); cur is the per-shard
	// newest published epoch. A cursor vec is resumable exactly when
	// low[si] <= vec[si] <= cur[si] for every shard: the ring then holds
	// every batch after vec and nothing before it is needed.
	retain int
	ring   []Batch // circular, ring[(start+i)%len] for i < count
	start  int
	count  int
	low    []uint64
	cur    []uint64
}

// setRetain (re)configures the retained ring. cur must be the per-shard
// committed epochs at the call point, read where no batch can commit (the
// callers hold an engine quiesce): everything up to cur counts as already
// evicted, so only batches published after this call are resumable.
// n <= 0 disables retention.
func (h *tailHub) setRetain(n int, cur []uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.start, h.count = 0, 0
	if n <= 0 {
		h.retain, h.ring, h.low, h.cur = 0, nil, nil, nil
		return
	}
	h.retain = n
	h.ring = make([]Batch, n)
	h.low = append([]uint64(nil), cur...)
	h.cur = append([]uint64(nil), cur...)
}

// retainLocked pushes one already-deep-copied batch into the ring,
// evicting the oldest entry (advancing its shard's low-water mark) when
// full. Caller holds h.mu.
func (h *tailHub) retainLocked(cp Batch) {
	if h.count == h.retain {
		old := h.ring[h.start]
		h.low[old.Shard] = old.Epoch
		h.ring[h.start] = Batch{}
		h.start = (h.start + 1) % h.retain
		h.count--
	}
	h.ring[(h.start+h.count)%h.retain] = cp
	h.count++
	h.cur[cp.Shard] = cp.Epoch
}

// replayAfter returns the retained batches after the commit vector vec, in
// publish (per-shard commit) order, plus a copy of the current vector. ok
// is false when vec is not covered by retention — some shard's cursor
// predates the low-water mark (evicted), runs ahead of the primary, or
// retention is off — in which case the caller falls back to bootstrap.
// The returned batches alias ring entries; their contents are immutable
// (publish deep-copied them once) so sharing is safe even as the ring
// later evicts them.
func (h *tailHub) replayAfter(vec []uint64) (replay []Batch, cur []uint64, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.retain == 0 || len(vec) != len(h.cur) {
		return nil, nil, false
	}
	for si := range vec {
		if vec[si] < h.low[si] || vec[si] > h.cur[si] {
			return nil, nil, false
		}
	}
	for i := 0; i < h.count; i++ {
		b := h.ring[(h.start+i)%h.retain]
		if b.Epoch > vec[b.Shard] {
			replay = append(replay, b)
		}
	}
	return replay, append([]uint64(nil), h.cur...), true
}

// subscribe registers a new reader, or returns nil once the hub is
// closed. Callers that need the stream to start at a known state must
// call it where no batch can commit (see bootstrap).
func (h *tailHub) subscribe(buffer int) *TailReader {
	if buffer <= 0 {
		buffer = DefaultTailBuffer
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	if h.subs == nil {
		h.subs = make(map[*TailReader]struct{})
	}
	r := &TailReader{hub: h, ch: make(chan Batch, buffer)}
	h.subs[r] = struct{}{}
	return r
}

// publish delivers one committed batch to every subscriber and the
// retained ring. It runs inside the committing shard's one-updater
// section, so per-shard batches are published in commit order; shards
// publish concurrently, which the hub lock serializes. The batch's edge
// slices alias the caller's buffers and are deep-copied once, shared
// read-only by the ring and all subscribers. A subscriber whose channel is
// full is dropped (overrun) rather than blocked on.
func (h *tailHub) publish(b Batch) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.subs) == 0 && h.retain == 0 {
		return
	}
	cp := b
	if len(b.Ins) > 0 {
		cp.Ins = append([]graph.Edge(nil), b.Ins...)
	}
	if len(b.Del) > 0 {
		cp.Del = append([]graph.Edge(nil), b.Del...)
	}
	if h.retain > 0 {
		h.retainLocked(cp)
	}
	for r := range h.subs {
		select {
		case r.ch <- cp:
		default:
			r.overrun.Store(true)
			r.closeLocked()
		}
	}
}

// closeAll drops every subscriber and refuses new ones (hub shutdown).
func (h *tailHub) closeAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for r := range h.subs {
		r.closeLocked()
	}
}

// Source is the primary-side replication surface: anything that can hand
// out a consistent engine capture plus the batch stream from exactly that
// point. The Manager implements it (WAL-backed primaries); TailSource
// implements it for primaries running without durability.
type Source interface {
	NumVertices() int
	NumShards() int
	// Bootstrap captures every shard's durable state and subscribes to the
	// batch stream atomically: the returned reader's channel carries
	// exactly the batches committed after the captured per-shard epochs.
	// buffer <= 0 uses DefaultTailBuffer.
	Bootstrap(buffer int) ([]ShardState, *TailReader, error)
	// SetRetain sizes the retained-batch ring behind Resume: the source
	// keeps the newest n committed batches in memory. Only batches
	// committed after the call are resumable. n <= 0 disables retention
	// (every Resume reports stale).
	SetRetain(n int)
	// Resume serves a reconnecting follower from its applied per-shard
	// commit vector: when every shard's cursor is still covered by the
	// retained ring it returns the retained batches after vec (in
	// per-shard commit order), the primary's current vector, and a tail
	// subscription capturing exactly the stream after those batches —
	// replay then tail carries every batch after vec exactly once. ok is
	// false when the cursor predates retention (or runs ahead of the
	// primary); the caller falls back to Bootstrap.
	Resume(vec []uint64, buffer int) (replay []Batch, cur []uint64, tr *TailReader, ok bool, err error)
}

// bootstrap implements Source.Bootstrap for the hub fed by eng: it
// quiesces eng, captures every shard's durable state and registers a tail
// subscription inside the same quiesce section. It fails once the hub is
// closed.
func (h *tailHub) bootstrap(eng Engine, buffer int) ([]ShardState, *TailReader, error) {
	states := make([]ShardState, eng.NumShards())
	var tr *TailReader
	eng.Quiesce(func() {
		for si := range states {
			states[si] = eng.ShardDurable(si)
		}
		tr = h.subscribe(buffer)
	})
	if tr == nil {
		return nil, nil, fmt.Errorf("wal: bootstrap after close")
	}
	return states, tr, nil
}

// retainFrom implements Source.SetRetain: it sizes the retained-batch
// ring, seeding the low-water vector from eng's committed epochs inside a
// quiesce so retention coverage starts exactly at the current commit
// point.
func (h *tailHub) retainFrom(eng Engine, n int) {
	eng.Quiesce(func() {
		vec := make([]uint64, eng.NumShards())
		for si := range vec {
			vec[si] = eng.ShardEpoch(si)
		}
		h.setRetain(n, vec)
	})
}

// resume implements Source.Resume: under one quiesce of eng it checks the
// cursor against the retained ring and, when covered, collects the replay
// and registers the tail subscription — the same atomicity bootstrap
// gets, so replay + tail carries every batch after vec exactly once.
func (h *tailHub) resume(eng Engine, vec []uint64, buffer int) ([]Batch, []uint64, *TailReader, bool, error) {
	if len(vec) != eng.NumShards() {
		return nil, nil, nil, false, fmt.Errorf("wal: resume vector has %d shards, engine has %d",
			len(vec), eng.NumShards())
	}
	var (
		replay []Batch
		cur    []uint64
		tr     *TailReader
		ok     bool
	)
	eng.Quiesce(func() {
		if replay, cur, ok = h.replayAfter(vec); ok {
			tr = h.subscribe(buffer)
		}
	})
	if ok && tr == nil {
		return nil, nil, nil, false, fmt.Errorf("wal: resume after close")
	}
	return replay, cur, tr, ok, nil
}

// NumVertices returns the attached engine's vertex count.
func (m *Manager) NumVertices() int { return m.eng.NumVertices() }

// NumShards returns the attached engine's shard count.
func (m *Manager) NumShards() int { return m.eng.NumShards() }

// Bootstrap implements Source. Works while degraded (replication does not
// depend on the disk) but not after Close.
func (m *Manager) Bootstrap(buffer int) ([]ShardState, *TailReader, error) {
	return m.hub.bootstrap(m.eng, buffer)
}

// SetRetain implements Source.
func (m *Manager) SetRetain(n int) { m.hub.retainFrom(m.eng, n) }

// Resume implements Source.
func (m *Manager) Resume(vec []uint64, buffer int) ([]Batch, []uint64, *TailReader, bool, error) {
	return m.hub.resume(m.eng, vec, buffer)
}

// TailSource adapts a bare engine (no WAL attached) to Source by
// installing its own batch hook. An engine has a single batch-log slot, so
// a TailSource must not be combined with an open Manager on the same
// engine — the Manager is already a Source in that case.
type TailSource struct {
	eng    Engine
	hub    tailHub
	closed atomic.Bool
}

// NewTailSource installs the tail hook on eng (under a quiesce, so it is
// safe on a live engine) and returns the source.
func NewTailSource(eng Engine) *TailSource {
	t := &TailSource{eng: eng}
	eng.Quiesce(func() { eng.SetBatchLog(t.hub.publish) })
	return t
}

// NumVertices returns the engine's vertex count.
func (t *TailSource) NumVertices() int { return t.eng.NumVertices() }

// NumShards returns the engine's shard count.
func (t *TailSource) NumShards() int { return t.eng.NumShards() }

// Bootstrap implements Source.
func (t *TailSource) Bootstrap(buffer int) ([]ShardState, *TailReader, error) {
	return t.hub.bootstrap(t.eng, buffer)
}

// SetRetain implements Source.
func (t *TailSource) SetRetain(n int) { t.hub.retainFrom(t.eng, n) }

// Resume implements Source.
func (t *TailSource) Resume(vec []uint64, buffer int) ([]Batch, []uint64, *TailReader, bool, error) {
	return t.hub.resume(t.eng, vec, buffer)
}

// Close uninstalls the batch hook and drops every subscriber.
func (t *TailSource) Close() {
	if !t.closed.CompareAndSwap(false, true) {
		return
	}
	t.eng.Quiesce(func() { t.eng.SetBatchLog(nil) })
	t.hub.closeAll()
}

// EncodeRecord frames one batch exactly as the on-disk log does —
// [len u32][crc32 u32][payload] — reusing buf's backing array when it is
// large enough. The same framing is the replication wire format, so a
// shipped record round-trips through DecodeRecord byte-identically.
func EncodeRecord(buf []byte, b Batch) []byte { return encodeRecord(buf, b) }

// DecodeRecord decodes the framed record at the start of data, returning
// the batch and the total framed length consumed. ok is false for a torn,
// truncated or corrupt frame.
func DecodeRecord(data []byte, shards int) (Batch, int, bool) { return nextRecord(data, shards) }

// MarshalShardState appends the snapshot encoding of one shard's durable
// state (the per-shard block of the snapshot format) to dst. n is the
// engine's vertex count.
func MarshalShardState(dst []byte, n int, st ShardState) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, shardStateSize(n, st))...)
	putShardState(dst, off, n, st)
	return dst
}

// UnmarshalShardState decodes one shard-state block from the start of
// data, returning the state and the bytes consumed.
func UnmarshalShardState(data []byte, n int) (ShardState, int, error) {
	return getShardState(data, 0, len(data), n)
}
