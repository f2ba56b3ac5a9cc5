package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// phase is one timed stretch of a run: every op's timing, the work units
// completed, and the failures among the attempted ops.
type phase struct {
	ops       []opSample // successful ops
	units     int
	attempted int
	failed    int
	errs      []error // the first few failures, for the log
	dur       time.Duration
	elapsed   time.Duration
	next      []int     // per client, the op index the next phase continues from
	rssPeaks  []float64 // per full one-second window, the highest sampled VmRSS (MB)
}

// opSample is one successful op: its input slot (-1 on a workload whose
// inputs do not repeat), when it ended relative to the phase start (-1
// when it falls in no full window, see extend), its latency and its work
// units.
type opSample struct {
	slot  int
	end   time.Duration
	lat   time.Duration
	units int
}

// window is the time slice an unkeyed phase is cut into.
const window = time.Second

// estimate is a phase's end-to-end figures.
type estimate struct {
	throughput float64 // units per second
	p50, p90   float64 // ms
	samples    string  // what the quantiles are taken over
}

// rawThroughput is units over wall time, unfiltered.
func (ph phase) rawThroughput() float64 { return float64(ph.units) / ph.elapsed.Seconds() }

// repeatQ is the quantile of a slot's repeats (keyed phases) or of the
// one-second windows (unkeyed phases) the timing figures are taken at.
const repeatQ = 0.1

// estimate reduces the phase to its end-to-end figures. The host this was
// built on slows code by up to 2× for stretches of seconds to minutes
// while other tenants contend for its cores. Interference only ever
// slows an op down, so the figures are taken from the less-disturbed
// repeats: a low quantile, not the fastest one, so that a cost paid in
// more than a tenth of the repeats still shows.
//
// Keyed phases cycle through a fixed set of input slots. Each slot's
// latency is the repeatQ quantile of its repeats; throughput is the units
// of one pass over the slots divided by the sum of slot latencies, and
// p50/p90 are taken over the slot latencies.
//
// Unkeyed phases are cut into one-second windows by op end time. Each
// full window gives a rate, a p50 and a p90; throughput is the window
// rate that a tenth of the windows exceed, and p50/p90 are the repeatQ
// quantiles of the window values.
func (ph phase) estimate() estimate {
	if len(ph.ops) == 0 {
		return estimate{}
	}
	if ph.ops[0].slot >= 0 {
		repeats := map[int][]float64{}
		units := map[int]int{}
		for _, o := range ph.ops {
			repeats[o.slot] = append(repeats[o.slot], ms(o.lat))
			units[o.slot] = o.units
		}
		var perSlot []float64
		var cycleMS float64
		var cycleUnits int
		for s, r := range repeats {
			l := quantile(r, repeatQ)
			perSlot = append(perSlot, l)
			cycleMS += l
			cycleUnits += units[s]
		}
		return estimate{
			throughput: float64(cycleUnits) / (cycleMS / 1e3),
			p50:        quantile(perSlot, 0.5),
			p90:        quantile(perSlot, 0.9),
			samples:    fmt.Sprintf("the %g quantile of the repeats of each of %d slots, %d ops", repeatQ, len(perSlot), len(ph.ops)),
		}
	}
	nw := int(ph.dur / window)
	lats := make([][]float64, nw)
	units := make([]int, nw)
	for _, o := range ph.ops {
		if w := int(o.end / window); o.end >= 0 && w < nw {
			lats[w] = append(lats[w], ms(o.lat))
			units[w] += o.units
		}
	}
	var tp, p50, p90 []float64
	n := 0
	for w := range lats {
		tp = append(tp, float64(units[w])/window.Seconds())
		if len(lats[w]) > 0 {
			p50 = append(p50, quantile(lats[w], 0.5))
			p90 = append(p90, quantile(lats[w], 0.9))
			n += len(lats[w])
		}
	}
	return estimate{
		throughput: quantile(tp, 1-repeatQ),
		p50:        quantile(p50, repeatQ),
		p90:        quantile(p90, repeatQ),
		samples:    fmt.Sprintf("the %g quantile of %d one-second windows, %d ops", repeatQ, nw, n),
	}
}

// extend appends the segment seg, measured after ph, to ph. Unkeyed ops
// are shifted past ph's full windows; an op that ended after the last
// full window of its own segment is kept out of every window.
func (ph *phase) extend(seg phase) {
	shift := ph.dur / window * window
	full := seg.dur / window * window
	for _, o := range seg.ops {
		if o.end >= full {
			o.end = -1
		} else {
			o.end += shift
		}
		ph.ops = append(ph.ops, o)
	}
	ph.dur = shift + full
	ph.elapsed += seg.elapsed
	ph.units += seg.units
	ph.attempted += seg.attempted
	ph.failed += seg.failed
	ph.errs = append(ph.errs, seg.errs...)
	ph.rssPeaks = append(ph.rssPeaks, seg.rssPeaks...)
	ph.next = seg.next
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// maxLoggedErrs bounds the failures a phase keeps for the log.
const maxLoggedErrs = 5

// measure drives len(first) closed-loop clients until dur has passed:
// each client issues its next op only when the previous one has returned.
// Client c's op indices continue from first[c], so a later phase keeps
// cycling through the same inputs where the previous phase stopped.
func measure(inst instance, first []int, dur time.Duration, tr *tracer) phase {
	type clientOut struct {
		phase
		next int
	}
	clients := len(first)
	outs := make([]clientOut, clients)
	start := time.Now()
	deadline := start.Add(dur)
	stop := make(chan struct{})
	peaks := make(chan []float64)
	go func() { peaks <- sampleRSS(start, dur, stop) }()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			i := first[c]
			for ; time.Now().Before(deadline); i++ {
				o.attempted++
				if err := inst.prepare(c, i); err != nil {
					o.fail(fmt.Errorf("client %d op %d: %w", c, i, err))
					continue
				}
				t0 := time.Now()
				u, err := inst.op(c, i, tr)
				t1 := time.Now()
				if err != nil {
					o.fail(fmt.Errorf("client %d op %d: %w", c, i, err))
					continue
				}
				o.ops = append(o.ops, opSample{slot: inst.slot(i), end: t1.Sub(start), lat: t1.Sub(t0), units: u})
				o.units += u
			}
			o.next = i
		}(c)
	}
	wg.Wait()
	close(stop)
	ph := phase{dur: dur, elapsed: time.Since(start), rssPeaks: <-peaks}
	for _, o := range outs {
		ph.ops = append(ph.ops, o.ops...)
		ph.units += o.units
		ph.attempted += o.attempted
		ph.failed += o.failed
		ph.errs = append(ph.errs, o.errs...)
		ph.next = append(ph.next, o.next)
	}
	return ph
}

func (ph *phase) fail(err error) {
	ph.failed++
	if len(ph.errs) < maxLoggedErrs {
		ph.errs = append(ph.errs, err)
	}
}

// quantile is the linearly interpolated q-quantile of xs (xs is sorted in
// place); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// spinMS times a fixed ALU loop: four independent xorshift chains plus
// table reads and writes in a 256 KiB array. It keeps every ALU port and
// the L2 busy, so its time rises when a co-tenant contends for the core;
// a single dependent chain barely notices. It is an environment probe:
// the program's code does not run in it.
func spinMS() float64 {
	t0 := time.Now()
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	var acc uint32
	for i := 0; i < 2_000_000; i++ {
		a ^= a << 13
		a ^= a >> 7
		a ^= a << 17
		b ^= b << 13
		b ^= b >> 7
		b ^= b << 17
		c ^= c << 13
		c ^= c >> 7
		c ^= c << 17
		d ^= d << 13
		d ^= d >> 7
		d ^= d << 17
		acc += spinTable[a&0xffff] + spinTable[b&0xffff]
		spinTable[c&0xffff] += uint32(d)
	}
	spinSink = a ^ b ^ c ^ d ^ uint64(acc)
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

var (
	spinTable [1 << 16]uint32
	spinSink  uint64
)

// rssSample is how often sampleRSS reads the resident set.
const rssSample = 20 * time.Millisecond

// sampleRSS reads VmRSS every rssSample until stop is closed and returns,
// for each full one-second window of the phase, the highest reading.
func sampleRSS(start time.Time, dur time.Duration, stop <-chan struct{}) []float64 {
	peaks := make([]float64, int(dur/window))
	tick := time.NewTicker(rssSample)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return peaks
		case t := <-tick.C:
			if w := int(t.Sub(start) / window); w < len(peaks) {
				peaks[w] = max(peaks[w], statusMB("VmRSS:"))
			}
		}
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 { return statusMB("VmHWM:") }

// statusMB reads a kB field of /proc/self/status in MB; 0 if unreadable.
func statusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// span is one traced call into a layer. Parent is 0 for a root span; Op
// is shared by every span of one benchmark operation. Attrs carries
// counters and time sums recorded at the span (for a radio trial, the
// per-round protocol and step nanoseconds).
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Op     int64            `json:"op"`
	Name   string           `json:"name"`
	Tag    string           `json:"tag,omitempty"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory, one log per client so clients never
// contend on it; write dumps them once the run is over.
type tracer struct {
	t0   time.Time
	logs []spanLog
}

type spanLog struct {
	client int64
	seq    int64
	spans  []*span
}

func newTracer(clients int) *tracer {
	tr := &tracer{t0: time.Now(), logs: make([]spanLog, clients)}
	for c := range tr.logs {
		tr.logs[c].client = int64(c)
	}
	return tr
}

// begin opens a span for client c; the caller sets End (via end) when the
// call returns.
func (tr *tracer) begin(c int, name string, parent, op int64) *span {
	l := &tr.logs[c]
	l.seq++
	s := &span{ID: l.client<<40 | l.seq, Parent: parent, Op: op, Name: name, Start: tr.now()}
	l.spans = append(l.spans, s)
	return s
}

func (tr *tracer) end(s *span) { s.End = tr.now() }

func (tr *tracer) now() int64 { return time.Since(tr.t0).Nanoseconds() }

func (tr *tracer) count() int {
	n := 0
	for _, l := range tr.logs {
		n += len(l.spans)
	}
	return n
}

// all returns every span of every client.
func (tr *tracer) all() []*span {
	var out []*span
	for _, l := range tr.logs {
		out = append(out, l.spans...)
	}
	return out
}

// named returns the spans called name.
func (tr *tracer) named(name string) []*span {
	var out []*span
	for _, s := range tr.all() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfNS is a span's duration minus its direct children's durations and
// minus the time sums its attrs record under attrKeys (per-round times
// summed into the span instead of recorded as child spans).
func selfNS(s *span, childNS map[int64]int64, attrKeys ...string) int64 {
	self := s.dur() - childNS[s.ID]
	for _, k := range attrKeys {
		self -= s.Attrs[k]
	}
	return self
}

// childNS sums each span's direct children's durations by parent ID.
func (tr *tracer) childNS() map[int64]int64 {
	out := map[int64]int64{}
	for _, s := range tr.all() {
		if s.Parent != 0 {
			out[s.Parent] += s.dur()
		}
	}
	return out
}

// write dumps every span as one JSON object per line.
func (tr *tracer) write(dir, name string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// durationsMS converts span durations to milliseconds.
func durationsMS(spans []*span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / 1e6
	}
	return out
}
