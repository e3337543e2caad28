// Command perfbench is the repository's end-to-end benchmark of the k-core
// service. It generates a seeded op stream, drives one of two workloads
// against the public kcore API or a real kcore-server, checks the answers
// against exact coreness, and prints one JSON result line last:
//
//	bash perfbench/run.sh --workload lib_sliding --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it replays the workload's op stream through a ladder of
// entry points, one per layer, and reports the per-layer metrics instead.
// Lines before the result start with "#" and say what ran on what machine.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	gates []string // failed correctness gates, printed before the result
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// gate records a correctness check; a failed one makes the run incorrect.
func (r *result) gate(ok bool, format string, args ...any) {
	if !ok {
		r.Correct = false
		r.gates = append(r.gates, fmt.Sprintf(format, args...))
	}
}

// config is what every workload receives.
type config struct {
	workload string
	seed     int64
	seconds  float64
	server   string // kcore-server binary
	dir      string // working directory of this run, inside the checkout
}

type workload struct {
	name  string
	batch int // inserts (and deletes) per write
	zipf  bool
	run   func(cfg config, s *stream, r *result) error
	trace func(cfg config, s *stream, r *result) error
}

var workloads = []workload{
	{name: "lib_sliding", batch: 5000, run: runLib, trace: traceLadder},
	{name: "http_read_heavy", batch: 5000, zipf: true, run: runHTTPReadHeavy, trace: traceLadder},
}

func main() {
	name := flag.String("workload", "", "workload to run: lib_sliding or http_read_heavy")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end run")
	server := flag.String("server", "", "kcore-server binary (run.sh builds it)")
	workdir := flag.String("workdir", ".bench_build", "directory for run files")
	child := flag.Bool(setupChild, false, "time one in-process set-up of the workload and exit")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w != nil && *child {
		os.Exit(timeSetup(newStream(*seed, w.batch, w.zipf)))
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || *server == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need -server, -workload (lib_sliding, http_read_heavy), -seconds > 0 and -trace 0|1")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	code := run(*w, config{workload: w.name, seed: *seed, seconds: *seconds, server: *server, dir: dir}, *trace == 1)
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(w workload, cfg config, traced bool) int {
	s := newStream(cfg.seed, w.batch, w.zipf)
	fmt.Printf("# input: workload=%s seed=%d fingerprint=%016x vertices=%d edges=%d window=%d batch=%d+%d\n",
		cfg.workload, cfg.seed, s.fingerprint(cfg.workload), s.n, len(s.seq), windowEdges, s.batch, s.batch)
	// The end-to-end workloads keep no log; the traced ladder's wal and
	// replica rungs fsync every batch.
	fsync := "none"
	if traced {
		fsync = "always"
	}
	env, _ := json.Marshal(environment(fsync))
	fmt.Printf("# env: %s\n", env)

	r := newResult()
	fn := w.run
	if traced {
		fn = w.trace
	}
	if err := fn(cfg, s, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if r.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 1
	}
	for _, g := range r.gates {
		fmt.Printf("# GATE FAILED: %s\n", g)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.gate(false, "metric %s is not a number", k)
			m.Value = -1
			r.Metrics[k] = m
		}
		fmt.Printf("# %-34s %14.6g %s\n", k, m.Value, m.Unit)
	}
	fmt.Printf("# fail_frac %.6g (%d of %d operations)\n", float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
	out, _ := json.Marshal(r)
	fmt.Println(string(out))
	if !r.Correct {
		return 1
	}
	return 0
}

// environment stamps a result with the machine it ran on.
func environment(fsync string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"fsync":      fsync,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// procStatusMB returns a memory field of /proc/<pid>/status, such as VmHWM
// (peak resident set) or VmRSS, in MiB; pid is "self" or a process id.
func procStatusMB(pid, field string) float64 {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
