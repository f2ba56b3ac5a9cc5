package main

import (
	"fmt"
	"reflect"
	"runtime"

	"wexp/internal/bitset"
	"wexp/internal/expansion"
	"wexp/internal/gen"
	"wexp/internal/graph"
	"wexp/internal/rng"
	"wexp/internal/runopts"
)

const (
	// exactInstances is the size of the seeded instance set a run cycles
	// through; exactN, exactP, exactMinDeg and exactMaxK fix the op's
	// shape.
	exactInstances = 128
	// exactCandidates is how many graphs set-up draws, whatever the seed,
	// so its work does not vary with the acceptance count. About 24% of
	// draws qualify: ~192 expected, 128 lie 5 standard deviations below.
	exactCandidates = 800
	exactN          = 120
	exactP          = 0.08
	exactMinDeg     = 2
	exactMaxK       = 4
)

// exactBench is the n = 120 frontier workload: every op is one
// expansion.Exact(ObjOrdinary, MaxK 4) call on the next instance.
//
// Instances are connected ErdosRenyi(120, 0.08) draws with minimum degree
// exactly 2. The search cost climbs steeply with the minimum degree
// (about 3, 23, 85 and 160 ms per solve at 1, 2, 3 and 4), so an
// unconditioned set mixes op shapes and its mean moves by ±15% from seed
// to seed. Within one class the cost still varies by ±30% between
// instances; at minimum degree 2 a run holds 128 instances, each solved
// ~8 times, where the modal class 3 would allow 32.
type exactBench struct {
	graphs    []*graph.Graph      // the first exactInstances qualifying draws
	qualified int                 // qualifying draws among the candidates
	refs      []*expansion.Result // each instance's first result
}

func setupExact(seed uint64) (instance, error) {
	r := rng.New(seed ^ rng.Salt("perfbench/exact-frontier"))
	e := &exactBench{refs: make([]*expansion.Result, exactInstances)}
	for range exactCandidates {
		g := gen.ErdosRenyi(exactN, exactP, r)
		if !g.Connected() || g.MinDegree() != exactMinDeg {
			continue
		}
		e.qualified++
		if len(e.graphs) < exactInstances {
			e.graphs = append(e.graphs, g)
		}
	}
	if len(e.graphs) < exactInstances {
		return nil, fmt.Errorf("%d of %d draws qualify, need %d", e.qualified, exactCandidates, exactInstances)
	}
	return e, nil
}

func (e *exactBench) prepare(int, int) error { return nil }

func (e *exactBench) slot(i int) int { return i % len(e.graphs) }

func (e *exactBench) peakRSS(ph phase) (float64, string) { return windowRSS(ph) }

func (e *exactBench) op(_, i int, tr *tracer) (int, error) {
	k := e.slot(i)
	g := e.graphs[k]
	var (
		sp     *span
		m0, m1 runtime.MemStats
	)
	if tr != nil {
		runtime.ReadMemStats(&m0)
		sp = tr.begin(0, "expansion.Exact", 0, int64(i)+1)
	}
	res, err := expansion.Exact(g, expansion.ObjOrdinary, expansion.Options{
		RunOpts: runopts.RunOpts{Workers: 1}, MaxK: exactMaxK})
	if tr != nil {
		tr.end(sp)
		runtime.ReadMemStats(&m1)
		sp.Attrs = map[string]int64{"mallocs": int64(m1.Mallocs - m0.Mallocs), "visited": res.Visited}
	}
	if err != nil {
		return 0, err
	}
	if err := checkWitness(g, res); err != nil {
		return 0, fmt.Errorf("instance %d: %w", k, err)
	}
	if ref := e.refs[k]; ref == nil {
		e.refs[k] = &res
	} else if !reflect.DeepEqual(*ref, res) {
		return 0, fmt.Errorf("instance %d: value or counts differ from the instance's first solve", k)
	}
	return 1, nil
}

// checkWitness re-evaluates the returned set with graph functions: its
// outer boundary |Γ⁻(S)| over |S| must equal Value.
func checkWitness(g *graph.Graph, res expansion.Result) error {
	if res.Cert.Kind != expansion.CertExact {
		return fmt.Errorf("certificate %v, want exact", res.Cert.Kind)
	}
	s := res.Witness
	if s == nil || s.Count() == 0 || s.Count() > exactMaxK {
		return fmt.Errorf("witness size out of range [1,%d]", exactMaxK)
	}
	boundary := bitset.New(g.N())
	s.ForEach(func(v int) {
		for _, w := range g.Neighbors(v) {
			if !s.Contains(int(w)) {
				boundary.Add(int(w))
			}
		}
	})
	if got := float64(boundary.Count()) / float64(s.Count()); got != res.Value {
		return fmt.Errorf("witness evaluates to %v, Value is %v", got, res.Value)
	}
	return nil
}

// finish solves every instance no op reached, so the exact counts always
// cover the whole set.
func (e *exactBench) finish() ([]string, error) {
	covered := 0
	for k, ref := range e.refs {
		if ref != nil {
			covered++
			continue
		}
		if _, err := e.op(0, k, nil); err != nil {
			return nil, err
		}
	}
	return []string{fmt.Sprintf("%d connected ErdosRenyi(%d, %g) instances of minimum degree %d, the first of %d qualifying among %d draws; %d reached while timed",
		len(e.graphs), exactN, exactP, exactMinDeg, e.qualified, exactCandidates, covered)}, nil
}

// counts are the B&B's worker-invariant search counters over the whole
// instance set: a pure function of the seed.
func (e *exactBench) counts() map[string]float64 {
	var visited, pruned, sets float64
	for _, r := range e.refs {
		visited += float64(r.Visited)
		pruned += float64(r.Pruned)
		sets += float64(r.Sets)
	}
	return map[string]float64{
		"expansion.visited_per_solve": visited / float64(len(e.refs)),
		"expansion.prune_rate":        pruned / (sets + pruned),
	}
}

func (e *exactBench) layers(tr *tracer) (map[string]float64, error) {
	spans := tr.named("expansion.Exact")
	if len(spans) == 0 {
		return nil, fmt.Errorf("traced phase recorded no solves")
	}
	var ns, visited, mallocs float64
	for _, s := range spans {
		ns += float64(s.dur())
		visited += float64(s.Attrs["visited"])
		mallocs += float64(s.Attrs["mallocs"])
	}
	m := e.counts()
	m["expansion.visited_per_s"] = visited / (ns / 1e9)
	m["expansion.allocs_per_solve"] = mallocs / float64(len(spans))
	return m, nil
}
