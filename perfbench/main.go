// Command perfbench is the repository benchmark. It runs one of four
// single-shape workloads against the public functions of internal/radio,
// internal/expansion, internal/graph and internal/service, checks every
// operation's output, and prints one JSON result object as the last line
// of standard output.
//
// Usage (from the repository root, normally through perfbench/run.sh):
//
//	perfbench --workload broadcast-sparse --seed 7 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of an untraced
// run. With --trace 1 the run is split into an untraced and a traced half;
// the result carries the per-layer metrics derived from the traced half's
// spans plus the tracing overhead. See README.md for the workload
// rationale and the layer → metric map.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	iofs "io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// outDir holds the traced runs' spans and the exact-count records,
// relative to the repository root the benchmark runs from.
const outDir = ".bench_build"

// setupRepeats is how many times an untraced run builds its workload from
// scratch; setup_s is the median. The first build is the measured one.
// The others are spread through the run, one after each of its segments,
// so a slow host stretch at the start of a run moves only a few of them.
const setupRepeats = 13

// A workload builds a fresh instance from the run seed. The instance's op
// is the unit of work the benchmark times.
type workload struct {
	unit    string // what one throughput unit is ("trials", "solves", "requests")
	clients int    // closed-loop clients calling op concurrently
	setup   func(seed uint64) (instance, error)
}

type instance interface {
	// prepare is client c's untimed think time before op i.
	prepare(c, i int) error
	// slot names the input op i runs on, for ops that cycle through a
	// fixed set of inputs; -1 when inputs do not repeat.
	slot(i int) int
	// op runs operation i of client c, checks its output and reports the
	// work units it completed. tr is nil on an untraced phase.
	op(c, i int, tr *tracer) (units int, err error)
	// finish runs the end-of-run checks and reports one-line facts
	// (draw counts, sample counts) for the log.
	finish() ([]string, error)
	// counts are the workload's exact-count metrics by name: pure
	// functions of the seed, asserted to repeat across runs (see
	// checkCounts).
	counts() map[string]float64
	// peakRSS is the resident high-water mark the run reports for an
	// untraced phase, and how it was read.
	peakRSS(ph phase) (float64, string)
	// layers derives the per-layer metrics, by name, from a traced phase.
	layers(tr *tracer) (map[string]float64, error)
}

var workloads = map[string]workload{
	"broadcast-sparse": {unit: "trials", clients: 1, setup: setupBroadcastSparse},
	"broadcast-dense":  {unit: "trials", clients: 1, setup: setupBroadcastDense},
	"exact-frontier":   {unit: "solves", clients: 1, setup: setupExact},
	"serve-mixed":      {unit: "requests", clients: serveClients, setup: setupServe},
}

// perLayerNames is every per-layer metric a traced run reports. A layer a
// workload does not exercise reports 0: it did no work there.
var perLayerNames = []struct{ name, unit string }{
	{"radio.protocol_ns_per_round", "ns"},
	{"radio.step_ns_per_round", "ns"},
	{"radio.loop_ns_per_round", "ns"},
	{"radio.rows_build_ms", "ms"},
	{"radio.allocs_per_trial", "count"},
	{"radio.rounds_per_trial", "count"},
	{"radio.transmissions_per_round", "count"},
	{"radio.collisions_per_transmission", "ratio"},
	{"expansion.visited_per_solve", "count"},
	{"expansion.prune_rate", "ratio"},
	{"expansion.visited_per_s", "1/s"},
	{"expansion.allocs_per_solve", "count"},
	{"graph.ingest_edges_per_s", "1/s"},
	{"graph.ingest_bytes_per_edge", "B"},
	{"graph.digest_us", "us"},
	{"service.hit_p50_us", "us"},
	{"service.allocs_per_hit", "count"},
	{"service.miss_p50_ms.expansion", "ms"},
	{"service.miss_p50_ms.broadcast", "ms"},
	{"service.miss_p50_ms.spokesman", "ms"},
	{"service.upload_p50_ms", "ms"},
	{"service.hit_ratio", "ratio"},
	{"service.coalesced", "count"},
	{"host.spin_ms", "ms"},
	{"run.wall_throughput_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
}

type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (broadcast-sparse|broadcast-dense|exact-frontier|serve-mixed)")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload in %v, --seconds ≥ 1, --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := execute(*name, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute builds the workload, measures it, runs the end-of-run checks
// and assembles the result. Log lines go to out, each prefixed with '#',
// ahead of the result line.
func execute(name string, w workload, seed uint64, dur time.Duration, traced bool, out io.Writer) (*result, error) {
	logf := func(format string, a ...any) { fmt.Fprintf(out, "# "+format+"\n", a...) }
	spinStart := spinMS()

	var setups []float64
	setup := func() (instance, error) {
		t0 := time.Now()
		in, err := w.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return in, nil
	}
	inst, err := setup()
	if err != nil {
		return nil, err
	}

	var phases []phase
	var tr *tracer
	if traced {
		// Untraced and traced halves of one process, so their throughput
		// difference is the tracing overhead on the same inputs and heap.
		untraced := measure(inst, make([]int, w.clients), dur/2, nil)
		tr = newTracer(w.clients)
		phases = []phase{untraced, measure(inst, untraced.next, dur-dur/2, tr)}
	} else {
		// The run is cut into segments with a set-up repeat after each.
		// Each repeat starts from a freshly collected heap, so a GC cycle
		// the segment left half done does not land in its timing; its
		// instance is dropped and collected with the segment's garbage.
		segs := max(1, min(setupRepeats-1, int(dur/time.Second)))
		var all phase
		var rates []string
		next := make([]int, w.clients)
		for range segs {
			seg := measure(inst, next, dur/time.Duration(segs), nil)
			rates = append(rates, fmt.Sprintf("%.1f", seg.rawThroughput()))
			all.extend(seg)
			next = seg.next
			runtime.GC()
			if _, err := setup(); err != nil {
				return nil, err
			}
		}
		for len(setups) < setupRepeats {
			runtime.GC()
			if _, err := setup(); err != nil {
				return nil, err
			}
		}
		phases = []phase{all}
		logf("raw %s/s by segment: %s", w.unit, strings.Join(rates, " "))
	}
	facts, finishErr := inst.finish()
	if finishErr == nil {
		var fact string
		fact, finishErr = checkCounts(filepath.Join(outDir, "counts"), name, seed, inst.counts())
		facts = append(facts, fact)
	}
	spinEnd := spinMS()

	res := &result{Metrics: map[string]metricJSON{}}
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		for _, e := range ph.errs {
			logf("op failed: %v", e)
		}
	}
	res.Correct = res.Failed == 0 && finishErr == nil
	if finishErr != nil {
		logf("end-of-run check failed: %v", finishErr)
	}
	for _, f := range facts {
		logf("%s", f)
	}
	est := make([]estimate, len(phases))
	for i, ph := range phases {
		est[i] = ph.estimate()
		logf("phase %d (traced=%v): %d ops, %d %s in %.3f s (%.4f/s raw); throughput_per_s=%.4f p50_ms=%.4f p90_ms=%.4f from %s",
			i, tr != nil && i == len(phases)-1, ph.attempted, ph.units, w.unit, ph.elapsed.Seconds(), ph.rawThroughput(),
			est[i].throughput, est[i].p50, est[i].p90, est[i].samples)
	}
	logf("setup_s runs=%v", setups)
	logf("host.spin_ms start=%.3f end=%.3f", spinStart, spinEnd)

	var metrics []metric
	if !traced {
		rss, when := inst.peakRSS(phases[0])
		logf("peak_rss_mb %s", when)
		metrics = []metric{
			{"throughput_per_s", est[0].throughput, "1/s"},
			{"p50_ms", est[0].p50, "ms"},
			{"p90_ms", est[0].p90, "ms"},
			{"peak_rss_mb", rss, "MB"},
			{"setup_s", median(setups), "s"},
		}
	} else {
		layer, err := inst.layers(tr)
		if err != nil {
			res.Correct = false
			logf("per-layer derivation failed: %v", err)
		}
		if layer == nil {
			layer = map[string]float64{}
		}
		overhead := 100 * (1 - est[1].throughput/est[0].throughput)
		layer["host.spin_ms"] = (spinStart + spinEnd) / 2
		layer["run.wall_throughput_per_s"] = phases[0].rawThroughput()
		layer["trace.overhead_pct"] = overhead
		logf("tracing overhead: untraced %.4f vs traced %.4f %s/s = %.2f%%",
			est[0].throughput, est[1].throughput, w.unit, overhead)
		metrics = fillLayers(layer)
		path, err := tr.write(filepath.Join(outDir, "spans"), name, seed)
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		logf("spans: %d written to %s", tr.count(), path)
	}
	for _, m := range metrics {
		res.Metrics[m.name] = metricJSON{Value: m.value, Unit: m.unit}
	}
	return res, nil
}

// windowRSS is the median over a phase's one-second windows of each
// window's highest sampled resident set. A heap whose size breathes with
// GC timing sets its high-water mark on a rare spike; the per-window
// median is the peak a steady run holds.
func windowRSS(ph phase) (float64, string) {
	return median(ph.rssPeaks), fmt.Sprintf("median over %d one-second windows of the highest VmRSS sampled every %v (VmHWM %.2f MB)",
		len(ph.rssPeaks), rssSample, peakRSSMB())
}

// fillLayers gives the reported per-layer values their units from
// perLayerNames and zero-fills the layers the workload does not exercise.
func fillLayers(got map[string]float64) []metric {
	out := make([]metric, len(perLayerNames))
	for i, p := range perLayerNames {
		out[i] = metric{p.name, got[p.name], p.unit}
	}
	return out
}

// checkCounts asserts that the exact-count metrics repeat across runs of
// one seed. The first run of a (binary, workload, seed) triple records
// them under dir; every later run must reproduce them bit for bit.
func checkCounts(dir, name string, seed uint64, cur map[string]float64) (string, error) {
	if len(cur) == 0 {
		return "no exact counts on this workload", nil
	}
	id, err := binaryID()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", name, seed, id))
	data, err := os.ReadFile(path)
	if errors.Is(err, iofs.ErrNotExist) {
		if data, err = json.Marshal(cur); err != nil {
			return "", err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return "", err
		}
		return fmt.Sprintf("exact counts %v recorded for later runs of this seed", cur), nil
	}
	if err != nil {
		return "", err
	}
	var prev map[string]float64
	if err := json.Unmarshal(data, &prev); err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	for k, v := range cur {
		if p, ok := prev[k]; !ok || math.Float64bits(p) != math.Float64bits(v) {
			return "", fmt.Errorf("exact count %s = %v, an earlier run of this seed gave %v", k, v, prev[k])
		}
	}
	return fmt.Sprintf("exact counts %v repeat an earlier run of this seed", cur), nil
}

// binaryID names the running executable by a hash of its contents, so
// recorded counts are only compared between runs of the same build.
func binaryID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}
