package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"kcore"
)

// Input shape shared by every workload: a Chung–Lu power-law graph of the
// size of the repository's "lj" stand-in (20k vertices, 120k edges,
// exponent 2.4), of which a sliding window of 60k edges is live at a time.
const (
	numVertices = 20000
	numEdges    = 120000
	plExponent  = 2.4
	windowEdges = 60000
	readRing    = 1 << 20 // pre-drawn read vertices, cycled
	bulkSize    = 64      // vertices per bulk read
	zipfS       = 1.1     // skew of the HTTP workloads' read vertices
)

// stream is one workload's generated input: the shuffled edge sequence
// whose sliding window is the live graph, the per-batch size, and the read
// vertices. Everything is a pure function of the seed.
type stream struct {
	n     int
	seq   []kcore.Edge // every edge of the graph, in arrival order (cyclic)
	batch int          // inserts (and deletes) per write
	reads []uint32     // read vertices, len readRing
}

// newStream draws the inputs for one run. zipf selects Zipf-skewed read
// vertices (the hubs are the low ids) instead of uniform ones.
func newStream(seed int64, batch int, zipf bool) *stream {
	rng := rand.New(rand.NewSource(seed))
	seq := chungLu(rng, numVertices, numEdges, plExponent)
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	reads := make([]uint32, readRing)
	if zipf {
		z := rand.NewZipf(rng, zipfS, 1, numVertices-1)
		for i := range reads {
			reads[i] = uint32(z.Uint64())
		}
	} else {
		for i := range reads {
			reads[i] = uint32(rng.Intn(numVertices))
		}
	}
	return &stream{n: numVertices, seq: seq, batch: batch, reads: reads}
}

// chungLu samples m distinct undirected edges whose expected degrees follow
// a power law with the given exponent; vertex 0 has the highest weight.
func chungLu(rng *rand.Rand, n, m int, exponent float64) []kcore.Edge {
	alpha := 1 / (exponent - 1)
	cum := make([]float64, n)
	acc := 0.0
	for i := range cum {
		acc += math.Pow(float64(i+1), -alpha)
		cum[i] = acc
	}
	pick := func() uint32 {
		i := sort.SearchFloat64s(cum, rng.Float64()*acc)
		if i >= n {
			i = n - 1
		}
		return uint32(i)
	}
	seen := make(map[kcore.Edge]struct{}, m)
	edges := make([]kcore.Edge, 0, m)
	for len(edges) < m {
		u, v := pick(), pick()
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		e := kcore.Edge{U: u, V: v}
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		edges = append(edges, e)
	}
	return edges
}

// base is the live graph after set-up: the first windowEdges edges.
func (s *stream) base() []kcore.Edge { return s.seq[:windowEdges] }

// period is the number of writes after which the op stream repeats.
func (s *stream) period() int { return len(s.seq) / s.batch }

// op returns write k: the next batch edges after the live window are
// inserted and the batch oldest live edges are deleted, so the live edge
// count stays at windowEdges and late writes cost what early ones do.
func (s *stream) op(k int) (ins, del []kcore.Edge) {
	return s.slice(windowEdges+k*s.batch, s.batch), s.slice(k*s.batch, s.batch)
}

// live returns the live edge set after the first k writes, plus — when
// insertsOnly — the inserts of write k+1 (the state between its insert and
// delete sub-batches).
func (s *stream) live(k int, insertsOnly bool) []kcore.Edge {
	n := windowEdges
	if insertsOnly {
		n += s.batch
	}
	return s.slice(k*s.batch, n)
}

func (s *stream) slice(from, n int) []kcore.Edge {
	out := make([]kcore.Edge, n)
	m := len(s.seq)
	for i := range out {
		out[i] = s.seq[(from+i)%m]
	}
	return out
}

// fingerprint hashes everything the run feeds the program — workload name,
// sizes, the edge sequence and the read vertices — so two runs can show
// they had identical input.
func (s *stream) fingerprint(workload string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(workload))
	var buf [8]byte
	put := func(x uint32) {
		binary.LittleEndian.PutUint32(buf[:4], x)
		h.Write(buf[:4])
	}
	put(uint32(s.n))
	put(uint32(windowEdges))
	put(uint32(s.batch))
	for _, e := range s.seq {
		put(e.U)
		put(e.V)
	}
	for _, v := range s.reads {
		put(v)
	}
	return h.Sum64()
}
