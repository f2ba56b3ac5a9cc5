package main

import (
	"fmt"
	"reflect"
	"runtime"

	"wexp/internal/gen"
	"wexp/internal/graph"
	"wexp/internal/radio"
	"wexp/internal/rng"
	"wexp/internal/runopts"
	"wexp/internal/stats"
)

// broadcastSlots is the number of distinct per-op seeds a broadcast run
// cycles through. Every repeat of a slot must return its first result.
const broadcastSlots = 16

// maxDraws bounds the re-draws spent looking for a connected graph.
const maxDraws = 1024

func decay(r *rng.RNG) radio.Protocol { return &radio.Decay{R: r} }

// broadcastBench is one Decay Monte-Carlo workload: every op is one
// radio.MonteCarlo call of `trials` unit-disk trials from source 0 on g.
type broadcastBench struct {
	g        *graph.Graph
	draws    int
	strategy string
	trials   int
	seeds    []uint64        // per-slot MonteCarlo seeds
	refs     []*radio.Result // each slot's first result
}

// setupBroadcastSparse: Torus(64,64), n = 4096, scalar strategy; Decay
// runs ~280 rounds with ~320 transmitters per round.
func setupBroadcastSparse(seed uint64) (instance, error) {
	return newBroadcast(seed, "broadcast-sparse", 4, "scalar",
		func(*rng.RNG) *graph.Graph { return gen.Torus(64, 64) })
}

// setupBroadcastDense: connected ErdosRenyi(1024, 0.1), m ≈ 52.6k, dense
// strategy; Decay runs ~52 rounds.
func setupBroadcastDense(seed uint64) (instance, error) {
	return newBroadcast(seed, "broadcast-dense", 16, "dense",
		func(r *rng.RNG) *graph.Graph { return gen.ErdosRenyi(1024, 0.1, r) })
}

func newBroadcast(seed uint64, name string, trials int, strategy string, draw func(*rng.RNG) *graph.Graph) (*broadcastBench, error) {
	r := rng.New(seed ^ rng.Salt("perfbench/"+name))
	g, draws, err := connectedGraph(r, draw)
	if err != nil {
		return nil, err
	}
	// The workload is defined by its strategy; refuse to measure another.
	if got := radio.BuildAdjRowsMem(g, radio.MemModel{}).Strategy(); got != strategy {
		return nil, fmt.Errorf("%s: adjacency strategy %q, want %q", name, got, strategy)
	}
	b := &broadcastBench{g: g, draws: draws, strategy: strategy, trials: trials,
		seeds: make([]uint64, broadcastSlots), refs: make([]*radio.Result, broadcastSlots)}
	for i := range b.seeds {
		b.seeds[i] = r.Uint64()
	}
	// Warm-up: slot 0 runs once so lazy set-up is paid before timing.
	if _, err := b.op(0, 0, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

// connectedGraph draws graphs from r until one is connected: Decay on a
// disconnected graph runs to its round budget. It reports the draws used.
func connectedGraph(r *rng.RNG, draw func(*rng.RNG) *graph.Graph) (*graph.Graph, int, error) {
	for d := 1; d <= maxDraws; d++ {
		if g := draw(r); g.Connected() {
			return g, d, nil
		}
	}
	return nil, maxDraws, fmt.Errorf("no connected graph in %d draws", maxDraws)
}

func (b *broadcastBench) prepare(int, int) error { return nil }

func (b *broadcastBench) slot(i int) int { return i % len(b.seeds) }

func (b *broadcastBench) peakRSS(ph phase) (float64, string) { return windowRSS(ph) }

func (b *broadcastBench) op(_, i int, tr *tracer) (int, error) {
	slot := b.slot(i)
	opt := radio.Options{RunOpts: runopts.RunOpts{Workers: 1, Seed: b.seeds[slot]}}
	var (
		sp     *span
		m0, m1 runtime.MemStats
	)
	if tr != nil {
		runtime.ReadMemStats(&m0)
		sp = tr.begin(0, "radio.MonteCarlo", 0, int64(i)+1)
	}
	res, err := radio.MonteCarlo(b.g, 0, decay, b.trials, opt)
	if tr != nil {
		tr.end(sp)
		runtime.ReadMemStats(&m1)
		sp.Attrs = map[string]int64{"mallocs": int64(m1.Mallocs - m0.Mallocs), "trials": int64(b.trials)}
	}
	if err != nil {
		return 0, err
	}
	if res.Completed != b.trials || len(res.PerTrial) != b.trials {
		return 0, fmt.Errorf("slot %d: %d of %d trials completed", slot, res.Completed, b.trials)
	}
	if ref := b.refs[slot]; ref == nil {
		b.refs[slot] = res
	} else if !reflect.DeepEqual(ref, res) {
		return 0, fmt.Errorf("slot %d: result differs from the slot's first run", slot)
	}
	if tr != nil {
		if err := b.replay(tr, int64(i)+1, opt.Seed, res); err != nil {
			return 0, fmt.Errorf("slot %d: %w", slot, err)
		}
	}
	return b.trials, nil
}

// replay re-runs the op's trials through the public round API exactly as
// MonteCarlo does — rows built once, one pre-split stream per trial in
// index order — timing Decay.Transmitters and Network.StepRound per round,
// and checks each trial against MonteCarlo's PerTrial record and the
// replayed informed counts against its per-round summaries.
func (b *broadcastBench) replay(tr *tracer, op int64, seed uint64, want *radio.Result) error {
	root := tr.begin(0, "radio.replay", 0, op)
	defer tr.end(root)
	rs := tr.begin(0, "radio.BuildAdjRowsMem", root.ID, op)
	rows := radio.BuildAdjRowsMem(b.g, radio.MemModel{})
	tr.end(rs)

	parent := rng.New(seed)
	streams := make([]*rng.RNG, b.trials)
	for k := range streams {
		streams[k] = parent.Split()
	}
	transmit := make([]bool, b.g.N())
	traces := make([][]int32, b.trials)
	for k, r := range streams {
		ts := tr.begin(0, "radio.trial", root.ID, op)
		net, err := radio.NewNetworkRows(b.g, 0, rows)
		if err != nil {
			return err
		}
		p := decay(r)
		var trace []int32
		trace = append(trace, int32(net.InformedCount))
		var protoNS, stepNS int64
		for net.Round < radio.DefaultMaxRounds && !net.Done() {
			clear(transmit)
			t0 := tr.now()
			p.Transmitters(net, transmit)
			t1 := tr.now()
			net.StepRound(transmit)
			t2 := tr.now()
			protoNS += t1 - t0
			stepNS += t2 - t1
			if net.Round <= radio.DefaultTraceRounds {
				trace = append(trace, int32(net.InformedCount))
			}
		}
		tr.end(ts)
		ts.Attrs = map[string]int64{"protocol_ns": protoNS, "step_ns": stepNS, "rounds": int64(net.Round)}
		got := radio.TrialResult{Trial: k, Rounds: net.Round, Completed: net.Done(),
			InformedCount: net.InformedCount, Collisions: net.Collisions, Transmissions: net.Transmissions}
		if got != want.PerTrial[k] {
			return fmt.Errorf("replayed trial %d = %+v, MonteCarlo recorded %+v", k, got, want.PerTrial[k])
		}
		traces[k] = trace
	}
	if got := roundSummaries(traces); !reflect.DeepEqual(got, want.InformedByRound) {
		return fmt.Errorf("replayed informed counts give %d round summaries unequal to MonteCarlo's %d", len(got), len(want.InformedByRound))
	}
	return nil
}

// roundSummaries summarizes per-trial informed-count traces round by
// round as MonteCarlo does: a trial that ended earlier contributes its
// final count.
func roundSummaries(traces [][]int32) []radio.RoundSummary {
	rounds := 0
	for _, t := range traces {
		rounds = max(rounds, len(t))
	}
	var out []radio.RoundSummary
	sample := make([]float64, len(traces))
	for r := range rounds {
		for k, t := range traces {
			sample[k] = float64(t[min(r, len(t)-1)])
		}
		qs := stats.Quantiles(sample, 0.1, 0.5, 0.9)
		out = append(out, radio.RoundSummary{Round: r, Mean: stats.Mean(sample),
			P10: qs[0], Median: qs[1], P90: qs[2], Min: stats.Min(sample), Max: stats.Max(sample)})
	}
	return out
}

// finish runs every slot no op reached, so the exact counts always cover
// all slots.
func (b *broadcastBench) finish() ([]string, error) {
	covered := 0
	for slot, ref := range b.refs {
		if ref != nil {
			covered++
			continue
		}
		if _, err := b.op(0, slot, nil); err != nil {
			return nil, err
		}
	}
	return []string{fmt.Sprintf("graph n=%d m=%d connected after %d draw(s), strategy %s; %d trials per op; %d of %d seed slots reached while timed",
		b.g.N(), b.g.M(), b.draws, b.strategy, b.trials, covered, len(b.refs))}, nil
}

// counts are the exact per-trial counts over every slot's trials: a pure
// function of the seed.
func (b *broadcastBench) counts() map[string]float64 {
	var trials, rounds, tx, coll float64
	for _, ref := range b.refs {
		for _, t := range ref.PerTrial {
			trials++
			rounds += float64(t.Rounds)
			tx += float64(t.Transmissions)
			coll += float64(t.Collisions)
		}
	}
	return map[string]float64{
		"radio.rounds_per_trial":            rounds / trials,
		"radio.transmissions_per_round":     tx / rounds,
		"radio.collisions_per_transmission": coll / tx,
	}
}

func (b *broadcastBench) layers(tr *tracer) (map[string]float64, error) {
	var protoNS, stepNS, loopNS, rounds float64
	children := tr.childNS()
	for _, s := range tr.named("radio.trial") {
		protoNS += float64(s.Attrs["protocol_ns"])
		stepNS += float64(s.Attrs["step_ns"])
		loopNS += float64(selfNS(s, children, "protocol_ns", "step_ns"))
		rounds += float64(s.Attrs["rounds"])
	}
	var mallocs, trials float64
	for _, s := range tr.named("radio.MonteCarlo") {
		mallocs += float64(s.Attrs["mallocs"])
		trials += float64(s.Attrs["trials"])
	}
	if rounds == 0 || trials == 0 {
		return nil, fmt.Errorf("traced phase recorded no trials")
	}
	m := b.counts()
	m["radio.protocol_ns_per_round"] = protoNS / rounds
	m["radio.step_ns_per_round"] = stepNS / rounds
	m["radio.loop_ns_per_round"] = loopNS / rounds
	m["radio.rows_build_ms"] = median(durationsMS(tr.named("radio.BuildAdjRowsMem")))
	m["radio.allocs_per_trial"] = mallocs / trials
	return m, nil
}
