// Package server is the HTTP adapter over a kcore.Decomposition — the
// deployment shape the paper motivates in §1: a read-dominated,
// latency-sensitive query path (social networks, search) concurrent with a
// batched update path. The Decomposition is built (engine, shards, WAL,
// replication role, change feed) by kcore.New; this package only maps
// requests onto its public API and adds the HTTP concerns: validation,
// structured errors, overload protection and metrics.
//
// Endpoints:
//
//	GET  /coreness?v=<id>[&mode=...][&epoch=<e>][&min_epoch=<e>]
//	POST /coreness/bulk              — JSON vertex list, one consistent cut
//	GET  /top?k=<n>[&epoch=<e>][&min_epoch=<e>]
//	GET  /subscribe                  — SSE coreness change feed (subscribe.go)
//	GET  /stats                      — graph, batch and replication counters
//	GET  /metrics                    — Prometheus text exposition (metrics.go)
//	GET  /healthz                    — liveness (always 200 while serving)
//	GET  /readyz                     — readiness (503 while WAL degraded or
//	                                   a replica is not yet synced)
//	POST /edges/insert               — body: "u v" per line; one batch
//	POST /edges/delete               — body: "u v" per line; one batch
//	POST /edges/batch                — JSON mixed batch (see batchRequest)
//	POST /snapshot                   — trigger a durability snapshot
//
// Every error path answers with one structured JSON shape,
// {"error": <message>, "code": <stable-code>}, and the service carries
// its own overload protection (per-client rate limiting, per-request
// deadlines, a max-in-flight gate on the heavy endpoints, panic
// isolation) — see middleware.go.
//
// # Replication
//
// Over a Decomposition built with kcore.WithReplicationSource (a
// follower of a primary built with kcore.WithReplicationListen) the
// server is a read-only replica: it serves the full read surface from the
// primary's byte-identical state, and every mutating endpoint answers 403
// with the stable code "read_only".
//
// Because a follower's epochs advance exactly as the primary's did, an
// epoch observed on one server is meaningful on the other. A client that
// has seen epoch e (any response's "epoch" field) passes it as a floor —
// `?min_epoch=e` on /coreness and /top, "min_epoch" in the bulk body —
// and the server either serves at an epoch >= e or, if still behind the
// floor after WithMinEpochWait, sheds the request with 412 and the stable
// code "epoch_behind". Bouncing between primary and replicas then never
// reads time backwards.
//
// Reads use the Decomposition's lock-free read protocols and never block
// on updates. Update requests from concurrent clients serialize on a
// single-shard Decomposition and are coalesced into per-shard sub-batches
// with kcore.WithShards(p > 1).
//
// Every read response carries an "epoch" field: the committed batch
// boundary (cross-shard, when sharded) the response was served from.
// Multi-vertex responses (/coreness/bulk, /top) are epoch-pinned — all
// values belong to that single boundary, never a torn mix of concurrent
// batches — so two responses reporting the same epoch observed the
// identical committed state. Single-vertex /coreness responses report the
// boundary the linearizable read belongs to (for the nonsync and blocking
// modes the field is the current committed epoch, which those protocols do
// not pin).
//
// Read endpoints also accept a *requested* epoch (`?epoch=` on /coreness
// and /top, the "epoch" field on /coreness/bulk): the response is then
// served exactly at that committed boundary — even a retired one, within
// the Decomposition's retention window (kcore.WithRetainedEpochs) — so
// paginated or multi-request clients can read a frozen cut across
// requests. The epoch is pinned for the duration of the request, so a
// served response is never torn by concurrent eviction. Requests for
// epochs that aged out of the window fail with 410 Gone; epochs not
// committed yet fail with 404.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"kcore"
	"kcore/internal/graph"
)

// Defaults of the HTTP knobs, each overridden by its option.
const (
	// DefaultMaxBatchEdges bounds the edges (and bulk-read vertices)
	// accepted per request (WithMaxBatchEdges).
	DefaultMaxBatchEdges = 1 << 20
	// DefaultMinEpochWait is how long an epoch-floor read (min_epoch) waits
	// for the Decomposition to catch up before shedding with 412
	// (WithMinEpochWait).
	DefaultMinEpochWait = 2 * time.Second
	// DefaultFeedHeartbeat is how often an idle /subscribe stream sends an
	// SSE comment line, so clients and intermediaries can tell a quiet
	// feed from a dead connection (WithFeedHeartbeat).
	DefaultFeedHeartbeat = 15 * time.Second
)

// Option configures a Server.
type Option func(*Server)

// WithMaxBatchEdges caps the edges accepted per update request and the
// vertices per bulk read.
func WithMaxBatchEdges(max int) Option {
	return func(s *Server) { s.maxBatchEdges = max }
}

// WithRateLimit enables per-client token-bucket rate limiting: each
// remote address may issue rps requests/second sustained with the given
// burst headroom; excess requests answer 429. rps <= 0 disables limiting
// (the default).
func WithRateLimit(rps float64, burst int) Option {
	return func(s *Server) {
		if rps > 0 {
			s.rate = newRateLimiter(rps, burst)
		}
	}
}

// WithMaxInFlight caps concurrently executing heavy requests (updates
// and bulk reads): request n+1 answers 503 immediately instead of
// queueing. n <= 0 disables the gate (the default). Single-vertex reads,
// stats and health probes are never gated.
func WithMaxInFlight(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.gate = &inflightGate{sem: make(chan struct{}, n)}
		}
	}
}

// WithRequestTimeout bounds every request by d: a handler that has not
// written its response within d answers 503 with code "timeout". d <= 0
// disables deadlines (the default).
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) { s.reqTimeout = d }
}

// WithMinEpochWait bounds how long an epoch-floor read (min_epoch) may
// wait for the Decomposition to reach the floor before answering 412
// "epoch_behind". d <= 0 sheds immediately when behind.
func WithMinEpochWait(d time.Duration) Option {
	return func(s *Server) { s.minEpochWait = d }
}

// WithFeedHeartbeat sets how often an idle /subscribe stream emits an SSE
// comment line. d <= 0 keeps DefaultFeedHeartbeat.
func WithFeedHeartbeat(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.feedHeartbeat = d
		}
	}
}

// Server is the HTTP k-core query/update service over one Decomposition.
type Server struct {
	d *kcore.Decomposition

	maxBatchEdges int
	rate          *rateLimiter  // nil = no rate limiting
	gate          *inflightGate // nil = no in-flight cap
	reqTimeout    time.Duration // <= 0 = no per-request deadline
	minEpochWait  time.Duration
	feedHeartbeat time.Duration

	metrics *metrics

	inserted atomic.Int64
	deleted  atomic.Int64
	reads    atomic.Int64

	rateLimited atomic.Int64
	loadShed    atomic.Int64
	timeouts    atomic.Int64
	panics      atomic.Int64
}

// New returns the HTTP service over d. The caller owns d: it builds it
// with kcore.New (shards, WAL, replication role, change-feed limits) and
// closes it after the HTTP server has shut down.
func New(d *kcore.Decomposition, opts ...Option) *Server {
	s := &Server{
		d:             d,
		maxBatchEdges: DefaultMaxBatchEdges,
		minEpochWait:  DefaultMinEpochWait,
		feedHeartbeat: DefaultFeedHeartbeat,
		metrics:       newMetrics(),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Handler returns the HTTP handler for the service: the route mux with
// every endpoint instrumented for /metrics, the heavy endpoints behind
// the in-flight gate, the mutating endpoints behind the read-only guard,
// wrapped (innermost to outermost) in panic recovery, the per-request
// deadline and the per-client rate limiter.
func (s *Server) Handler() http.Handler {
	heavy := func(h http.Handler) http.Handler {
		if s.gate == nil {
			return h
		}
		return s.gate.wrap(h)
	}
	if s.gate != nil {
		s.gate.shed = func() { s.loadShed.Add(1) }
	}
	mux := http.NewServeMux()
	route := func(pattern, name string, h http.Handler) {
		mux.Handle(pattern, s.metrics.instrument(name, h))
	}
	route("GET /coreness", "/coreness", http.HandlerFunc(s.handleCoreness))
	route("POST /coreness/bulk", "/coreness/bulk", heavy(http.HandlerFunc(s.handleCorenessBulk)))
	route("GET /top", "/top", heavy(http.HandlerFunc(s.handleTop)))
	route("GET /stats", "/stats", http.HandlerFunc(s.handleStats))
	route("GET /healthz", "/healthz", http.HandlerFunc(s.handleHealthz))
	route("GET /readyz", "/readyz", http.HandlerFunc(s.handleReadyz))
	route("POST /edges/insert", "/edges/insert", heavy(s.readOnlyGuard(s.handleUpdate(true))))
	route("POST /edges/delete", "/edges/delete", heavy(s.readOnlyGuard(s.handleUpdate(false))))
	route("POST /edges/batch", "/edges/batch", heavy(s.readOnlyGuard(http.HandlerFunc(s.handleBatch))))
	route("POST /snapshot", "/snapshot", s.readOnlyGuard(http.HandlerFunc(s.handleSnapshot)))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// /subscribe streams: like /metrics, registered without the metrics
	// instrumentation — its buffering statusWriter cannot flush SSE frames
	// as they are written (and a long-lived stream would skew the latency
	// histograms). The timeout middleware also exempts this path.
	mux.HandleFunc("GET /subscribe", s.handleSubscribe)
	var h http.Handler = mux
	h = s.recoverMiddleware(h)
	h = s.timeoutMiddleware(h)
	if s.rate != nil {
		h = s.rateLimitMiddleware(h)
	}
	return h
}

// readOnlyGuard rejects mutating requests on a replica with the stable
// "read_only" code: a replica's state may advance only by applying the
// primary's batch stream, never by local writes (which would fork it from
// the primary permanently — there is no reconciliation).
func (s *Server) readOnlyGuard(next http.Handler) http.Handler {
	if !s.d.ReadOnly() {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusForbidden, codeReadOnly,
			"this server is a read replica; send writes to the primary")
	})
}

// snapshotResponse is the JSON body of POST /snapshot.
type snapshotResponse struct {
	Epoch uint64 `json:"epoch"`
}

// handleSnapshot triggers a durability snapshot (an admin operation: it
// checkpoints the engine and truncates the log's replay tail).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.durability() == nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "snapshots require a WAL (-wal)")
		return
	}
	if err := s.d.Snapshot(); err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
		return
	}
	writeJSON(w, snapshotResponse{Epoch: s.d.Epoch()})
}

// corenessResponse is the JSON body of /coreness. Epoch is the committed
// batch boundary the value belongs to (current epoch for the unpinned
// nonsync/blocking modes; the requested boundary for retained reads).
type corenessResponse struct {
	Vertex   uint32  `json:"vertex"`
	Coreness float64 `json:"coreness"`
	Mode     string  `json:"mode"`
	Batch    uint64  `json:"batch"`
	Epoch    uint64  `json:"epoch"`
}

// writeEpochError maps a requested-epoch read failure to its HTTP status:
// 410 Gone once the epoch aged out of the retention window, 404 for an
// epoch that has not committed yet.
func writeEpochError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, kcore.ErrEpochEvicted):
		writeError(w, http.StatusGone, codeEvicted, err.Error())
	case errors.Is(err, kcore.ErrFutureEpoch):
		writeError(w, http.StatusNotFound, codeFuture, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
	}
}

// uintParam extracts the optional unsigned query parameter name (nil when
// absent), answering 400 itself on a malformed value (bad reports that
// case).
func uintParam(w http.ResponseWriter, r *http.Request, name string) (val *uint64, bad bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return nil, false
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "bad "+name)
		return nil, true
	}
	return &v, false
}

// epochBehindResponse is the structured 412 body of an epoch-floor read
// that timed out: the client learns how far behind the server is and can
// retry here or fall back to the primary.
type epochBehindResponse struct {
	Error    string `json:"error"`
	Code     string `json:"code"`
	Epoch    uint64 `json:"epoch"`     // server's committed epoch
	MinEpoch uint64 `json:"min_epoch"` // the requested floor
}

// awaitEpochFloor blocks until the committed epoch reaches the floor (nil
// = no floor), the wait budget (WithMinEpochWait) runs out, or the client
// goes away. On timeout it answers 412 "epoch_behind" and reports false.
// The fast path — floor already committed, which is always the case on a
// primary serving a floor it issued — costs one atomic load.
func (s *Server) awaitEpochFloor(w http.ResponseWriter, r *http.Request, floorp *uint64) bool {
	if floorp == nil {
		return true
	}
	floor := *floorp
	startEpoch := s.d.Epoch()
	if floor == 0 || startEpoch >= floor {
		return true
	}
	start := time.Now()
	deadline := start.Add(s.minEpochWait)
	for s.minEpochWait > 0 {
		select {
		case <-r.Context().Done():
			return false // client gone; nothing to answer
		case <-time.After(time.Millisecond):
		}
		if s.d.Epoch() >= floor {
			return true
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	now := s.d.Epoch()
	w.Header().Set("Retry-After", retryAfterSeconds(floor, startEpoch, now, time.Since(start), s.minEpochWait))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusPreconditionFailed)
	_ = writeJSONBody(w, epochBehindResponse{
		Error:    fmt.Sprintf("committed epoch %d is behind the requested floor %d", now, floor),
		Code:     codeEpochBehind,
		Epoch:    now,
		MinEpoch: floor,
	})
	return false
}

// retryAfterSeconds derives the 412 Retry-After hint from the progress
// observed during the wait: if the engine advanced at all, extrapolate the
// remaining gap at that rate; if it made no progress (a paused feed, a
// partitioned follower), fall back to the configured wait budget — the
// soonest a retry could plausibly see a different outcome. Clamped to
// [1, 60] so a stalled replica never tells routers to hammer it or to
// give up for minutes.
func retryAfterSeconds(floor, startEpoch, nowEpoch uint64, waited, budget time.Duration) string {
	if nowEpoch >= floor {
		// The floor was crossed between the wait deadline and this call;
		// the 412 is already committed, so just tell the client to retry
		// immediately (and keep the gap arithmetic below underflow-free).
		return "1"
	}
	var secs int64
	if nowEpoch > startEpoch && waited > 0 {
		gap := floor - nowEpoch
		perEpoch := waited / time.Duration(nowEpoch-startEpoch)
		secs = int64((time.Duration(gap)*perEpoch + time.Second - 1) / time.Second)
	} else {
		secs = int64((budget + time.Second - 1) / time.Second)
	}
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return strconv.FormatInt(secs, 10)
}

// serve runs read against a View and returns the epoch it served: a
// floating view of the latest commit when epoch is nil, else a view fixed
// at *epoch and pinned for the duration, so a response that starts
// serving cannot be torn by concurrent eviction. When the epoch cannot be
// pinned but is still the current one — retention disabled, where only
// the current epoch is servable — the read proceeds unpinned and fails
// with the typed errors if a commit overtakes it. On failure serve writes
// the mapped HTTP error and reports false.
func (s *Server) serve(w http.ResponseWriter, epoch *uint64, read func(v *kcore.View)) (uint64, bool) {
	if epoch == nil {
		v := s.d.View()
		read(v)
		return v.Epoch(), true
	}
	v, err := s.d.ViewAt(*epoch)
	if err == nil {
		if err = v.Pin(); err == nil {
			defer v.Release()
		} else if errors.Is(err, kcore.ErrEpochEvicted) {
			err = nil
		}
	}
	if err == nil {
		read(v)
		err = v.Err()
	}
	if err != nil {
		writeEpochError(w, err)
		return 0, false
	}
	return v.Epoch(), true
}

func (s *Server) handleCoreness(w http.ResponseWriter, r *http.Request) {
	v64, err := strconv.ParseUint(r.URL.Query().Get("v"), 10, 32)
	if err != nil || int(v64) >= s.d.NumVertices() {
		writeError(w, http.StatusBadRequest, codeBadRequest, "bad or out-of-range vertex id")
		return
	}
	u := uint32(v64)
	floor, bad := uintParam(w, r, "min_epoch")
	if bad || !s.awaitEpochFloor(w, r, floor) {
		return
	}
	requested, bad := uintParam(w, r, "epoch")
	if bad {
		return
	}
	mode := r.URL.Query().Get("mode")
	if requested != nil && mode != "" && mode != "linearizable" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "mode is incompatible with a requested epoch")
		return
	}
	var est float64
	var epoch uint64
	switch mode {
	case "", "linearizable":
		var ok bool
		if epoch, ok = s.serve(w, requested, func(v *kcore.View) { est = v.Coreness(u) }); !ok {
			return
		}
		mode = "linearizable"
		if requested != nil {
			mode = "retained"
		}
	case "nonsync":
		est, epoch = s.d.CorenessNonLinearizable(u), s.d.Epoch()
	case "blocking":
		est, epoch = s.d.CorenessBlocking(u), s.d.Epoch()
	default:
		writeError(w, http.StatusBadRequest, codeBadRequest, "unknown mode (want linearizable, nonsync or blocking)")
		return
	}
	s.reads.Add(1)
	writeJSON(w, corenessResponse{Vertex: u, Coreness: est, Mode: mode, Batch: s.d.BatchNumber(), Epoch: epoch})
}

// bulkRequest is the JSON body of POST /coreness/bulk: the vertices to
// read and, optionally, the committed epoch to read them at (absent =
// latest) and/or an epoch floor the server must have reached before
// serving (see the package comment's replication section). The response
// values are epoch-pinned: all estimates belong to the single committed
// batch boundary reported in the response.
type bulkRequest struct {
	Vertices []uint32 `json:"vertices"`
	Epoch    *uint64  `json:"epoch"`
	MinEpoch *uint64  `json:"min_epoch"`
}

// bulkResponse is the JSON body of the bulk coreness endpoint. Coreness[i]
// is the estimate of Vertices[i] at Epoch.
type bulkResponse struct {
	Vertices []uint32  `json:"vertices"`
	Coreness []float64 `json:"coreness"`
	Epoch    uint64    `json:"epoch"`
}

func (s *Server) handleCorenessBulk(w http.ResponseWriter, r *http.Request) {
	// The vertex-count cap also bounds decode memory, as in /edges/batch.
	var req bulkRequest
	if !s.decodeJSON(w, r, int64(s.maxBatchEdges)*16+4096, "bulk", &req) {
		return
	}
	if len(req.Vertices) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "empty vertex list")
		return
	}
	if len(req.Vertices) > s.maxBatchEdges {
		writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
			fmt.Sprintf("bulk read of %d vertices exceeds limit %d", len(req.Vertices), s.maxBatchEdges))
		return
	}
	n := uint32(s.d.NumVertices())
	for _, v := range req.Vertices {
		if v >= n {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				fmt.Sprintf("vertex %d out of range, have %d vertices", v, n))
			return
		}
	}
	if !s.awaitEpochFloor(w, r, req.MinEpoch) {
		return
	}
	out := make([]float64, len(req.Vertices))
	epoch, ok := s.serve(w, req.Epoch, func(v *kcore.View) { v.CorenessManyInto(req.Vertices, out) })
	if !ok {
		return
	}
	s.reads.Add(int64(len(req.Vertices)))
	writeJSON(w, bulkResponse{Vertices: req.Vertices, Coreness: out, Epoch: epoch})
}

// topResponse is the JSON body of /top. The ranking is computed over the
// single committed cut identified by Epoch.
type topResponse struct {
	K        int      `json:"k"`
	Vertices []uint32 `json:"vertices"`
	Epoch    uint64   `json:"epoch"`
}

func (s *Server) handleTop(w http.ResponseWriter, r *http.Request) {
	k, err := strconv.Atoi(r.URL.Query().Get("k"))
	if err != nil || k < 1 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "bad k")
		return
	}
	floor, bad := uintParam(w, r, "min_epoch")
	if bad || !s.awaitEpochFloor(w, r, floor) {
		return
	}
	requested, bad := uintParam(w, r, "epoch")
	if bad {
		return
	}
	var top []uint32
	epoch, ok := s.serve(w, requested, func(v *kcore.View) { top = v.TopK(k) })
	if !ok {
		return
	}
	s.reads.Add(int64(s.d.NumVertices()))
	writeJSON(w, topResponse{K: k, Vertices: top, Epoch: epoch})
}

// statsResponse is the JSON body of /stats: the Decomposition's own stats
// types plus the server's request counters. ShardLoad carries the
// per-shard load breakdown (owned vertices, edges, applied batches).
type statsResponse struct {
	Vertices    int                     `json:"vertices"`
	Shards      int                     `json:"shards"`
	Edges       int64                   `json:"edges"`
	Batches     uint64                  `json:"batches"`
	Epoch       uint64                  `json:"epoch"`
	Retained    int                     `json:"retained_epochs"`
	OldestEpoch uint64                  `json:"oldest_epoch"`
	Inserted    int64                   `json:"edges_inserted"`
	Deleted     int64                   `json:"edges_deleted"`
	Reads       int64                   `json:"reads_served"`
	ShardLoad   []kcore.ShardLoad       `json:"shard_load"`
	Feed        kcore.FeedStats         `json:"feed"`
	Durability  *kcore.DurabilityStats  `json:"durability,omitempty"`
	Replication *kcore.ReplicationStats `json:"replication,omitempty"`
	Overload    overloadStats           `json:"overload"`
}

// overloadStats counts requests turned away or cut off by the protection
// layer, plus panics contained by the recovery middleware.
type overloadStats struct {
	RateLimited int64 `json:"rate_limited"`
	LoadShed    int64 `json:"load_shed"`
	Timeouts    int64 `json:"timeouts"`
	Panics      int64 `json:"panics"`
}

// durability returns the write-ahead log's stats, or nil without a WAL.
func (s *Server) durability() *kcore.DurabilityStats {
	st, ok := s.d.DurabilityStats()
	if !ok {
		return nil
	}
	return &st
}

// replication returns the replication role's stats, or nil without one.
// The follower role is called "replica" on the wire.
func (s *Server) replication() *kcore.ReplicationStats {
	st, ok := s.d.ReplicationStats()
	if !ok {
		return nil
	}
	if st.Follower != nil {
		st.Role = "replica"
	}
	return &st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, statsResponse{
		Vertices:    s.d.NumVertices(),
		Shards:      s.d.Shards(),
		Edges:       s.d.NumEdges(),
		Batches:     s.d.BatchNumber(),
		Epoch:       s.d.Epoch(),
		Retained:    s.d.RetainedEpochs(),
		OldestEpoch: s.d.OldestReadableEpoch(),
		Inserted:    s.inserted.Load(),
		Deleted:     s.deleted.Load(),
		Reads:       s.reads.Load(),
		ShardLoad:   s.d.ShardStats(),
		Feed:        s.d.FeedStats(),
		Durability:  s.durability(),
		Replication: s.replication(),
		Overload: overloadStats{
			RateLimited: s.rateLimited.Load(),
			LoadShed:    s.loadShed.Load(),
			Timeouts:    s.timeouts.Load(),
			Panics:      s.panics.Load(),
		},
	})
}

// updateResponse is the JSON body of the update endpoints.
type updateResponse struct {
	Applied int    `json:"applied"`
	Batch   uint64 `json:"batch"`
}

// checkEdges validates an update's size and vertex range. It returns the
// HTTP status and error for an invalid update.
func (s *Server) checkEdges(lists ...[]kcore.Edge) (int, error) {
	total := 0
	for _, list := range lists {
		total += len(list)
	}
	if total > s.maxBatchEdges {
		return http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d edges exceeds limit %d", total, s.maxBatchEdges)
	}
	n := uint32(s.d.NumVertices())
	for _, list := range lists {
		for _, e := range list {
			if e.U >= n || e.V >= n {
				return http.StatusBadRequest,
					fmt.Errorf("vertex out of range: edge (%d,%d), have %d vertices", e.U, e.V, n)
			}
		}
	}
	return http.StatusOK, nil
}

// writeCheckError answers a failed checkEdges.
func writeCheckError(w http.ResponseWriter, status int, err error) {
	code := codeBadRequest
	if status == http.StatusRequestEntityTooLarge {
		code = codeTooLarge
	}
	writeError(w, status, code, err.Error())
}

func (s *Server) handleUpdate(insert bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Same limits as /edges/batch: bound the body before parsing so
		// the edge-count cap also bounds memory (a text edge line is well
		// under 32 bytes), then enforce the count and vertex range.
		body := http.MaxBytesReader(w, r.Body, int64(s.maxBatchEdges)*32+4096)
		parsed, _, err := graph.ReadEdgeList(body)
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
					fmt.Sprintf("edge list exceeds %d bytes", tooLarge.Limit))
				return
			}
			writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Sprintf("bad edge list: %v", err))
			return
		}
		edges := make([]kcore.Edge, len(parsed))
		for i, e := range parsed {
			edges[i] = kcore.Edge{U: e.U, V: e.V}
		}
		if status, err := s.checkEdges(edges); err != nil {
			writeCheckError(w, status, err)
			return
		}
		var applied int
		if insert {
			applied = s.d.InsertEdges(edges)
			s.inserted.Add(int64(applied))
		} else {
			applied = s.d.DeleteEdges(edges)
			s.deleted.Add(int64(applied))
		}
		writeJSON(w, updateResponse{Applied: applied, Batch: s.d.BatchNumber()})
	}
}

// batchRequest is the JSON body of POST /edges/batch: a mixed batch of
// insertions and deletions, {"insert": [{"u": 0, "v": 1}, ...],
// "delete": [...]}, applied as one kcore ApplyBatch call.
type batchRequest struct {
	Insert []kcore.Edge `json:"insert"`
	Delete []kcore.Edge `json:"delete"`
}

// batchResponse is the JSON body of the batch endpoint.
type batchResponse struct {
	Inserted int    `json:"inserted"`
	Deleted  int    `json:"deleted"`
	Batch    uint64 `json:"batch"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	// Bound the body before decoding so the edge-count limit also bounds
	// memory: an edge object is well under 64 bytes of JSON.
	var req batchRequest
	if !s.decodeJSON(w, r, int64(s.maxBatchEdges)*64+4096, "batch", &req) {
		return
	}
	if len(req.Insert)+len(req.Delete) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "empty batch: need at least one edge in insert or delete")
		return
	}
	if status, err := s.checkEdges(req.Insert, req.Delete); err != nil {
		writeCheckError(w, status, err)
		return
	}
	ins, del := s.d.ApplyBatch(req.Insert, req.Delete)
	s.inserted.Add(int64(ins))
	s.deleted.Add(int64(del))
	writeJSON(w, batchResponse{Inserted: ins, Deleted: del, Batch: s.d.BatchNumber()})
}

// decodeJSON decodes the request body into v, rejecting unknown fields
// and bodies over limit bytes; on failure it answers 400 or 413 itself
// and reports false. what names the body in error messages.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
			fmt.Sprintf("%s body exceeds %d bytes", what, tooLarge.Limit))
		return false
	}
	writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Sprintf("bad %s JSON: %v", what, err))
	return false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = writeJSONBody(w, v)
}

// writeJSONBody encodes v to w without touching headers (the caller has
// already committed the status line).
func writeJSONBody(w http.ResponseWriter, v any) error {
	return json.NewEncoder(w).Encode(v)
}
