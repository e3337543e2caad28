package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"kcore"
)

// readSample is one read to grade against exact coreness: the estimate of
// vertex v, read while the committed epoch went from lo to hi. A read
// that is not epoch-pinned may also see the batch after hi, whose commit
// can be under way (its levels become visible before the epoch ticks), so
// it is graded against every state in [lo, hi+1]. Epoch-pinned reads set
// pinned and are graded against lo alone.
type readSample struct {
	v      uint32
	est    float64
	lo, hi uint64
	pinned bool
	anchor bool // first vertex of a bulk read: its state may be graded
}

// history maps the epochs a run committed to states of the op stream. The
// single writer applies writes in order, so after write k (0-based) the
// live graph is stream.live(k+1, false); an epoch strictly between two
// writes' end epochs is the state between that write's insert and delete
// sub-batches.
type history struct {
	e0   uint64   // epoch after set-up: no writes applied
	ends []uint64 // ends[k] is the epoch once write k committed
}

// stateAt returns the op-stream state of epoch e: k writes applied, plus
// the inserts of write k when mid. ok is false for an epoch outside the
// recorded history.
func (h *history) stateAt(e uint64) (k int, mid, ok bool) {
	if e == h.e0 {
		return 0, false, true
	}
	if e < h.e0 {
		return 0, false, false
	}
	i := sort.Search(len(h.ends), func(i int) bool { return h.ends[i] >= e })
	if i == len(h.ends) {
		return 0, false, false
	}
	if h.ends[i] == e {
		return i + 1, false, true
	}
	return i, true, true
}

// ratioError is the paper's Fig. 6 error: max(est/k, k/est) with both
// sides clamped below at 1, so zero-coreness vertices are well defined.
func ratioError(est float64, k int32) float64 {
	kk := math.Max(float64(k), 1)
	ee := math.Max(est, 1)
	return math.Max(ee/kk, kk/ee)
}

// gradeReads scores samples against exact coreness computed offline from
// the op stream, outside any timed window. A sample's error is the
// smallest over the states its epoch range allows. Computing exact
// coreness once per state is the offline cost, so only the states of at
// most maxStates bulk reads, taken evenly over the run (bulk reads run on
// a fixed schedule), are graded, each with every sample read in it. It
// returns the mean error, the number of samples graded, how many
// exceeded bound and a description of the last one that did.
func gradeReads(s *stream, h *history, samples []readSample, bound float64, maxStates int) (mean float64, graded, bad int, worst string) {
	type state struct {
		k   int
		mid bool
	}
	var anchors []state
	for _, sm := range samples {
		if k, mid, ok := h.stateAt(sm.lo); ok && sm.anchor {
			anchors = append(anchors, state{k, mid})
		}
	}
	picked := map[state]bool{}
	stride := (len(anchors) + maxStates - 1) / max(maxStates, 1)
	for i := 0; i < len(anchors); i += max(stride, 1) {
		picked[anchors[i]] = true
	}
	cache := map[state][]int32{}
	exact := func(st state) []int32 {
		c, ok := cache[st]
		if !ok {
			c = kcore.Static(s.n, s.live(st.k, st.mid))
			cache[st] = c
		}
		return c
	}
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].lo < samples[j].lo })
	sum := 0.0
	for _, sm := range samples {
		k0, mid0, ok := h.stateAt(sm.lo)
		if !ok || !picked[state{k0, mid0}] {
			continue
		}
		// States before this one are never needed again: samples are in
		// epoch order.
		for st := range cache {
			if st.k < k0 {
				delete(cache, st)
			}
		}
		hi := sm.hi + 1
		if sm.pinned {
			hi = sm.lo
		}
		best := math.Inf(1)
		var truth []int32
		for e := sm.lo; e <= hi; e++ {
			k, mid, ok := h.stateAt(e)
			if !ok {
				continue
			}
			x := exact(state{k, mid})[sm.v]
			truth = append(truth, x)
			best = math.Min(best, ratioError(sm.est, x))
		}
		graded++
		sum += best
		if best > bound {
			bad++
			worst = fmt.Sprintf("vertex %d read %.4g at epochs %d..%d, exact %v", sm.v, sm.est, sm.lo, sm.hi, truth)
		}
	}
	if graded == 0 {
		return math.NaN(), 0, 0, ""
	}
	return sum / float64(graded), graded, bad, worst
}

// obs is one observation by a reader: at time at (since the run started)
// the committed epoch was at least epoch.
type obs struct {
	at    time.Duration
	epoch uint64
}

// visibility matches each write to the first observation at an epoch at or
// above its own and returns the delay from each write's send, aligned
// with sent; -1 marks a write never observed. An epoch with nothing to
// report (no coreness moved, so no feed message) is seen through the next
// observation above it.
func visibility(sent []time.Duration, target []uint64, seen []obs) (delays []time.Duration, unmatched int) {
	sort.SliceStable(seen, func(i, j int) bool { return seen[i].at < seen[j].at })
	maxEpoch := make([]uint64, len(seen))
	var m uint64
	for i, o := range seen {
		m = max(m, o.epoch)
		maxEpoch[i] = m
	}
	delays = make([]time.Duration, len(target))
	for k, e := range target {
		i := sort.Search(len(seen), func(i int) bool { return maxEpoch[i] >= e })
		if i == len(seen) {
			delays[k] = -1
			unmatched++
			continue
		}
		delays[k] = max(seen[i].at-sent[k], 0)
	}
	return delays, unmatched
}
