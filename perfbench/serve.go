package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"wexp/internal/expansion"
	"wexp/internal/gen"
	"wexp/internal/graph"
	"wexp/internal/rng"
	"wexp/internal/service"
)

// Session shape. Each session uploads one connected
// ErdosRenyi(serveN, serveP) graph, sends serveQueries uncached queries on
// it (one expansion, serveBroadcasts broadcasts, one spokesman) and then
// re-reads every query serveRereads times from the cache.
const (
	serveClients    = 2
	serveN          = 256
	serveP          = 0.06
	serveBroadcasts = 3
	serveTrials     = 32
	serveQueries    = serveBroadcasts + 2
	serveRereads    = 2
	servePerSession = 1 + serveQueries*(1+serveRereads)
	// servePool is how many sessions set-up generates per client; past
	// its pool a client generates each session as untimed think time
	// before the upload.
	servePool = 32
	// serveGraphs is how many distinct graphs a client uploads: session j
	// uploads graph j mod serveGraphs. A memory-only store holds at most
	// service.DefaultMaxGraphs graphs and refuses more, so fresh graphs
	// for every session would fill it within a run on a fast host.
	serveGraphs = 256
	// serveProbeHits is the number of cached reads the allocation probe
	// replays after the traced phase.
	serveProbeHits = 256
	// serveRSSSessions is the session count at which peak RSS is read.
	// The result cache grows up to its byte cap, so the high-water mark
	// at the end of a run would grow with the number of sessions a faster
	// server completes; read at a fixed amount of work it does not.
	serveRSSSessions = 1024
)

// session is one client's upload plus the queries it sends on it.
type session struct {
	body    []byte
	digest  string
	n, m    int
	revisit bool     // an earlier session of the client uploaded the graph
	queries []string // route + query, graph=<digest> filled in
}

// serveBench drives an in-process memory-only wexpd through
// Server.ServeHTTP from serve-mixed's closed-loop clients.
type serveBench struct {
	seed     uint64
	srv      *service.Server
	clients  []*serveClient
	sessions atomic.Int64  // sessions started over all clients
	rss      atomic.Uint64 // math.Float64bits of peak RSS at serveRSSSessions
}

// serveClient is one client's state; only its own goroutine touches it.
type serveClient struct {
	pool      []*session
	cur       *session
	missBody  [][]byte // current session's uncached bodies, by query; nil until read
	cached    *session // the last session whose queries are all cached
	generated int      // sessions generated as think time
	draws     int      // graph draws over all sessions, for the log
	hits      int
	misses    int
	coalesced int
	uploads   int
}

func setupServe(seed uint64) (instance, error) {
	s := &serveBench{seed: seed, srv: service.New(service.Config{Workers: 1})}
	for c := 0; c < serveClients; c++ {
		cl := &serveClient{}
		for j := range servePool {
			sess, d, err := newSession(seed, c, j)
			if err != nil {
				return nil, err
			}
			cl.pool = append(cl.pool, sess)
			cl.draws += d
		}
		s.clients = append(s.clients, cl)
	}
	return s, nil
}

// newSession builds client c's session j: a pure function of the seed.
// Its graph is the one of session j mod serveGraphs; its queries are
// drawn afresh, so they are still uncached on a revisited graph. The
// expansion query takes a budget one lower per visit: the budget is part
// of the cache key and never binds on these instances.
func newSession(seed uint64, c, j int) (*session, int, error) {
	gr := rng.New(seed ^ rng.Salt("perfbench/serve-mixed") ^ uint64(c)<<32 ^ uint64(j%serveGraphs))
	g, draws, err := connectedGraph(gr, func(r *rng.RNG) *graph.Graph { return gen.ErdosRenyi(serveN, serveP, r) })
	if err != nil {
		return nil, 0, err
	}
	var body bytes.Buffer
	if err := graph.WriteEdgeList(&body, g); err != nil {
		return nil, 0, err
	}
	d := graph.DigestString(g)
	sess := &session{body: body.Bytes(), digest: d, n: g.N(), m: g.M(), revisit: j >= serveGraphs}
	r := rng.New(seed ^ rng.Salt("perfbench/serve-mixed/queries") ^ uint64(c)<<32 ^ uint64(j))
	sess.queries = append(sess.queries, fmt.Sprintf("/v1/expansion?graph=%s&obj=ordinary&maxk=2&budget=%d", d, expansion.DefaultBudget-j/serveGraphs))
	for range serveBroadcasts {
		sess.queries = append(sess.queries, fmt.Sprintf("/v1/broadcast?graph=%s&trials=%d&seed=%d", d, serveTrials, r.Uint64()))
	}
	set := r.Choose(g.N(), 12)
	ids := make([]string, len(set))
	for k, v := range set {
		ids[k] = strconv.Itoa(v)
	}
	sess.queries = append(sess.queries, fmt.Sprintf("/v1/spokesman?graph=%s&s=%s&trials=4&seed=%d", d, strings.Join(ids, ","), r.Uint64()))
	return sess, draws, nil
}

// route names a request path's endpoint for span tags and per-class
// latency.
func route(path string) string {
	p, _, _ := strings.Cut(strings.TrimPrefix(path, "/v1/"), "?")
	return p
}

// prepare picks up client c's next session before its upload.
func (s *serveBench) prepare(c, i int) error {
	if i%servePerSession != 0 {
		return nil
	}
	if s.sessions.Add(1) == serveRSSSessions {
		s.rss.Store(math.Float64bits(peakRSSMB()))
	}
	cl := s.clients[c]
	cl.missBody = make([][]byte, serveQueries)
	if j := i / servePerSession; j < len(cl.pool) {
		cl.cur = cl.pool[j]
		cl.pool[j] = nil // uploaded once; let it go
	} else {
		sess, d, err := newSession(s.seed, c, j)
		if err != nil {
			return err
		}
		cl.cur = sess
		cl.generated++
		cl.draws += d
	}
	return nil
}

func (s *serveBench) slot(int) int { return -1 }

// peakRSS is the high-water mark when session serveRSSSessions started,
// or now if the run never got there.
func (s *serveBench) peakRSS(phase) (float64, string) {
	if b := s.rss.Load(); b != 0 {
		return math.Float64frombits(b), fmt.Sprintf("read when session %d of %d started", serveRSSSessions, s.sessions.Load())
	}
	return peakRSSMB(), fmt.Sprintf("read at the end: only %d sessions ran", s.sessions.Load())
}

func (s *serveBench) op(c, i int, tr *tracer) (int, error) {
	cl := s.clients[c]
	step := i % servePerSession
	op := int64(c)<<40 | int64(i+1)
	if step == 0 {
		return 1, s.upload(cl, c, op, tr)
	}
	if cl.cur == nil {
		return 0, fmt.Errorf("request %d has no session", i)
	}
	q := (step - 1) % serveQueries
	path := cl.cur.queries[q]
	rec, outcome := s.serve(c, op, tr, httptest.NewRequest(http.MethodGet, path, nil), route(path))
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("%s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	if step <= serveQueries {
		if outcome != "miss" {
			return 0, fmt.Errorf("%s: X-Cache %q on a first read, want miss", path, outcome)
		}
		cl.misses++
		cl.missBody[q] = rec.Body.Bytes()
		if q == serveQueries-1 && !slices.ContainsFunc(cl.missBody, func(b []byte) bool { return b == nil }) {
			cl.cached = cl.cur
		}
		return 1, nil
	}
	switch outcome {
	case "hit":
		cl.hits++
	case "coalesced":
		cl.coalesced++
	default:
		return 0, fmt.Errorf("%s: X-Cache %q on a re-read, want hit", path, outcome)
	}
	if cl.missBody[q] == nil {
		return 0, fmt.Errorf("%s: re-read of a query whose first read failed", path)
	}
	if !bytes.Equal(rec.Body.Bytes(), cl.missBody[q]) {
		return 0, fmt.Errorf("%s: cached body differs from the miss body", path)
	}
	return 1, nil
}

// upload posts the client's current session graph. On a traced phase the
// benchmark also ingests and digests the same body itself, so the graph
// layer's share of an upload is measured where the server's is not
// visible from outside.
func (s *serveBench) upload(cl *serveClient, c int, op int64, tr *tracer) error {
	sess := cl.cur
	if tr != nil {
		sp := tr.begin(c, "graph.StreamEdgeList", 0, op)
		g, err := graph.StreamEdgeList(bytes.NewReader(sess.body), graph.EdgeListOptions{})
		tr.end(sp)
		if err != nil {
			return err
		}
		sp.Attrs = map[string]int64{"edges": int64(g.M()), "bytes": int64(len(sess.body))}
		sd := tr.begin(c, "graph.DigestString", 0, op)
		d := graph.DigestString(g)
		tr.end(sd)
		if d != sess.digest {
			return fmt.Errorf("ingested digest %s, generated graph has %s", d, sess.digest)
		}
	}
	rec, _ := s.serve(c, op, tr, httptest.NewRequest(http.MethodPost, "/v1/graphs", bytes.NewReader(sess.body)), "upload")
	want := http.StatusCreated
	if sess.revisit {
		want = http.StatusOK
	}
	if rec.Code != want {
		return fmt.Errorf("upload: status %d, want %d: %s", rec.Code, want, rec.Body.String())
	}
	var put struct {
		Digest  string `json:"digest"`
		N, M    int
		Existed bool `json:"existed"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &put); err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	if put.Digest != sess.digest || put.N != sess.n || put.M != sess.m || put.Existed != sess.revisit {
		return fmt.Errorf("upload: stored %s (n=%d m=%d existed=%v), sent %s (n=%d m=%d revisit=%v)",
			put.Digest, put.N, put.M, put.Existed, sess.digest, sess.n, sess.m, sess.revisit)
	}
	cl.uploads++
	return nil
}

// serve runs one request through the handler, in a span tagged
// route:outcome on a traced phase, and returns the X-Cache outcome.
func (s *serveBench) serve(c int, op int64, tr *tracer, req *http.Request, rt string) (*httptest.ResponseRecorder, string) {
	rec := httptest.NewRecorder()
	if tr == nil {
		s.srv.ServeHTTP(rec, req)
		return rec, rec.Header().Get("X-Cache")
	}
	sp := tr.begin(c, "service.ServeHTTP", 0, op)
	s.srv.ServeHTTP(rec, req)
	tr.end(sp)
	outcome := rec.Header().Get("X-Cache")
	sp.Tag = rt + ":" + outcome
	return rec, outcome
}

// finish checks the server's own hit and miss counters against what the
// clients saw.
func (s *serveBench) finish() ([]string, error) {
	var hits, misses, coalesced, uploads, generated, draws int
	for _, cl := range s.clients {
		hits += cl.hits
		misses += cl.misses
		coalesced += cl.coalesced
		uploads += cl.uploads
		generated += cl.generated
		draws += cl.draws
	}
	m, err := s.scrape()
	if err != nil {
		return nil, err
	}
	facts := []string{fmt.Sprintf("%d uploads, %d misses, %d hits, %d coalesced; /metrics: %d hits, %d misses, %d computations; %d sessions generated as think time; %d graph draws",
		uploads, misses, hits, coalesced, m["wexpd_cache_hits"], m["wexpd_cache_misses"], m["wexpd_computations"], generated, draws)}
	if m["wexpd_cache_hits"] != int64(hits) {
		return facts, fmt.Errorf("wexpd_cache_hits = %d, clients counted %d hits", m["wexpd_cache_hits"], hits)
	}
	if m["wexpd_cache_misses"] != int64(misses) {
		return facts, fmt.Errorf("wexpd_cache_misses = %d, clients counted %d misses", m["wexpd_cache_misses"], misses)
	}
	return facts, nil
}

// scrape reads GET /metrics into a name → value map.
func (s *serveBench) scrape() (map[string]int64, error) {
	rec := httptest.NewRecorder()
	s.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", rec.Code)
	}
	out := map[string]int64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", sc.Text(), err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// counts: serve-mixed has no count that is a pure function of the seed —
// how many sessions run depends on speed.
func (s *serveBench) counts() map[string]float64 { return nil }

func (s *serveBench) layers(tr *tracer) (map[string]float64, error) {
	byTag := map[string][]*span{}
	reads, hits, coalesced := 0, 0, 0
	for _, sp := range tr.named("service.ServeHTTP") {
		byTag[sp.Tag] = append(byTag[sp.Tag], sp)
		rt, outcome, _ := strings.Cut(sp.Tag, ":")
		if rt == "upload" {
			continue
		}
		reads++
		switch outcome {
		case "hit":
			hits++
		case "coalesced":
			coalesced++
		}
	}
	var hitSpans []*span
	for tag, spans := range byTag {
		if strings.HasSuffix(tag, ":hit") {
			hitSpans = append(hitSpans, spans...)
		}
	}
	if reads == 0 || len(hitSpans) == 0 {
		return nil, fmt.Errorf("traced phase recorded no cached reads")
	}
	var edges, ns float64
	for _, sp := range tr.named("graph.StreamEdgeList") {
		edges += float64(sp.Attrs["edges"])
		ns += float64(sp.dur())
	}
	if edges == 0 {
		return nil, fmt.Errorf("traced phase recorded no uploads")
	}
	allocs, err := s.allocsPerHit()
	if err != nil {
		return nil, err
	}
	bytesPerEdge, err := s.ingestBytesPerEdge()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"graph.ingest_edges_per_s":      edges / (ns / 1e9),
		"graph.ingest_bytes_per_edge":   bytesPerEdge,
		"graph.digest_us":               1000 * median(durationsMS(tr.named("graph.DigestString"))),
		"service.hit_p50_us":            1000 * median(durationsMS(hitSpans)),
		"service.allocs_per_hit":        allocs,
		"service.miss_p50_ms.expansion": median(durationsMS(byTag["expansion:miss"])),
		"service.miss_p50_ms.broadcast": median(durationsMS(byTag["broadcast:miss"])),
		"service.miss_p50_ms.spokesman": median(durationsMS(byTag["spokesman:miss"])),
		"service.upload_p50_ms":         median(durationsMS(byTag["upload:"])),
		"service.hit_ratio":             float64(hits) / float64(reads),
		"service.coalesced":             float64(coalesced),
	}, nil
}

// allocsPerHit replays cached reads of client 0's last session from one
// goroutine and counts heap allocations inside ServeHTTP only: requests
// and recorders are built before the count starts.
func (s *serveBench) allocsPerHit() (float64, error) {
	sess := s.clients[0].cached
	if sess == nil {
		return 0, fmt.Errorf("allocation probe: client 0 has no fully cached session")
	}
	reqs := make([]*http.Request, serveProbeHits)
	recs := make([]*httptest.ResponseRecorder, serveProbeHits)
	for k := range reqs {
		reqs[k] = httptest.NewRequest(http.MethodGet, sess.queries[k%serveQueries], nil)
		recs[k] = httptest.NewRecorder()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := range reqs {
		s.srv.ServeHTTP(recs[k], reqs[k])
	}
	runtime.ReadMemStats(&m1)
	for k, rec := range recs {
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
			return 0, fmt.Errorf("allocation probe: read %d: status %d, X-Cache %q", k, rec.Code, rec.Header().Get("X-Cache"))
		}
	}
	return float64(m1.Mallocs-m0.Mallocs) / serveProbeHits, nil
}

// ingestBytesPerEdge streams the first sessions' bodies through
// graph.StreamEdgeList from one goroutine and reports heap bytes
// allocated per edge.
func (s *serveBench) ingestBytesPerEdge() (float64, error) {
	const probes = 16
	bodies := make([]io.Reader, probes)
	for j := range bodies {
		sess, _, err := newSession(s.seed, 0, j)
		if err != nil {
			return 0, err
		}
		bodies[j] = bytes.NewReader(sess.body)
	}
	var m0, m1 runtime.MemStats
	var edges int
	runtime.ReadMemStats(&m0)
	for _, r := range bodies {
		g, err := graph.StreamEdgeList(r, graph.EdgeListOptions{})
		if err != nil {
			return 0, err
		}
		edges += g.M()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(edges), nil
}
