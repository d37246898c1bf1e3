package main

// The traced run. It first times the catalog build layer by layer in a
// fresh process, then repeats the untraced closed loop to read the Go
// runtime around it, and finally replays the workload's operations one
// at a time on two fresh catalogs: each op goes once through the
// untraced Server.ServeHTTP (through a recorder) and once through the
// layers' public functions, called in the order the handler calls them,
// each call timed. Timings, shard spans and counters are recorded here;
// the program itself carries no tracing for this.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"xmatch/internal/core"
	"xmatch/internal/dataset"
	"xmatch/internal/delta"
	"xmatch/internal/engine"
	"xmatch/internal/index"
	"xmatch/internal/mapgen"
	"xmatch/internal/server"
	"xmatch/internal/xmltree"
)

// span is one per-shard evaluation unit, reported by the engine's
// Shards.Observe hook.
type span struct {
	shard int
	start time.Time
	dur   time.Duration
}

// tracer keeps one evaluation's shard spans in memory; they arrive from
// the engine's observer, possibly from several goroutines.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) observe(shard int, took time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, span{shard, time.Now().Add(-took), took})
	t.mu.Unlock()
}

// timed runs fn and returns how long it took.
func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// acc accumulates one per-layer metric as a sum over a count.
type acc struct {
	sum float64
	n   int
}

func (a *acc) add(v float64) { a.sum += v; a.n++ }

func (a acc) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// layerStats accumulates the traced replay.
type layerStats struct {
	handler, decode, overhead, encode, respKB, prepare, aggregate acc
	eval                                                          map[string]*acc
	shardEval, shardSkew, gather                                  acc
	prepareHits, prepares                                         float64
	relevant, matches                                             acc
	nonempty, results                                             float64
	queries                                                       float64
	idx                                                           index.CountersSnapshot
	apply, overlay, appendUS                                      acc
	logBytes, edits                                               float64
	mismatches                                                    int
}

func newLayerStats() *layerStats {
	return &layerStats{eval: map[string]*acc{"basic": {}, "compact": {}, "topk": {}, "batch": {}}}
}

// evalSpans folds one evaluation's shard spans into the shard metrics
// and records the evaluation's self time (engine.gather_us): its wall
// time minus the part the shard spans cover.
func (ls *layerStats) evalSpans(tr *tracer, evalStart time.Time, evalDur time.Duration) {
	shards := tr.spans
	perShard := map[int]time.Duration{}
	for _, s := range shards {
		perShard[s.shard] += s.dur
		ls.shardEval.add(us(s.dur))
	}
	if len(perShard) > 0 {
		var sum, mx time.Duration
		for _, d := range perShard {
			sum += d
			mx = max(mx, d)
		}
		ls.shardSkew.add(float64(mx) / (float64(sum) / float64(len(perShard))))
	}
	// Union of the shard intervals, clipped to the evaluation.
	sort.Slice(shards, func(i, j int) bool { return shards[i].start.Before(shards[j].start) })
	end := evalStart.Add(evalDur)
	var covered time.Duration
	cur := evalStart
	for _, s := range shards {
		a, b := s.start, s.start.Add(s.dur)
		if a.Before(cur) {
			a = cur
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			covered += b.Sub(a)
			cur = b
		}
	}
	ls.gather.add(us(evalDur - covered))
}

// replayer evaluates ops through the layers of one catalog.
type replayer struct {
	cat *server.Catalog
	ls  *layerStats
}

// budget is the per-request worker cap the server applies by default:
// half the dataset's pool, rounded up.
func budget(ds *server.Dataset) int { return (ds.Engine.Workers() + 1) / 2 }

// replay answers one op through the layers and returns the response
// body the handler would have written. handler is the untraced handler
// time of the same op, used for the overhead metric; pass 0 to skip
// recording (warm-up).
func (r *replayer) replay(o *op, handler time.Duration) ([]byte, error) {
	switch o.kind {
	case kindQuery:
		return r.query(o, handler)
	case kindBatch:
		return r.batch(o, handler > 0)
	default:
		return r.mutate(o, handler > 0)
	}
}

// pinned lists the pinned snapshots' documents and their consistency
// token, the highest shard epoch, as the handlers do.
func pinned(snaps []*delta.Snapshot) ([]*xmltree.Document, uint64) {
	docs := make([]*xmltree.Document, len(snaps))
	var epoch uint64
	for i, sn := range snaps {
		docs[i] = sn.Doc
		epoch = max(epoch, sn.Epoch)
	}
	return docs, epoch
}

func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(v) // the wire types always encode
	return buf.Bytes()
}

func (r *replayer) query(o *op, handler time.Duration) ([]byte, error) {
	tr := &tracer{}
	var req server.QueryRequest
	var err error
	dDecode := timed(func() { err = json.NewDecoder(bytes.NewReader(o.body)).Decode(&req) })
	if err != nil {
		return nil, err
	}
	ds := r.cat.Get(req.Dataset)
	mode := req.Mode
	if mode == "" {
		mode = "compact"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	snaps := ds.Snapshots()
	eng := ds.Engine.Sub(budget(ds)).WithContext(ctx)
	var q *core.Query
	var cached bool
	dPrep := timed(func() { q, cached, err = eng.PrepareCached(req.Pattern, ds.Set) })
	if err != nil {
		return nil, err
	}
	docs, epoch := pinned(snaps)
	sh := engine.Shards{Docs: docs, Observe: tr.observe}
	before := index.GlobalCounters()
	var results []core.Result
	evalStart := time.Now()
	dEval := timed(func() {
		switch mode {
		case "basic":
			results = eng.EvaluateBasicAcross(q, ds.Set, sh)
		case "compact":
			results = eng.EvaluateAcross(q, ds.Set, sh, ds.Tree)
		default:
			results = eng.EvaluateTopKAcross(q, ds.Set, sh, ds.Tree, req.K)
		}
	})
	after := index.GlobalCounters()
	resp := server.QueryResponse{Dataset: req.Dataset, Pattern: req.Pattern, Mode: mode, K: req.K, Epoch: epoch}
	dAgg := timed(func() {
		resp.Results = core.ToWire(results)
		resp.Answers = core.AnswersToWire(core.AggregateLeaf(q, results))
	})
	var body []byte
	dEnc := timed(func() { body = encodeJSON(resp) })
	if handler == 0 {
		return body, nil
	}

	ls := r.ls
	ls.handler.add(us(handler))
	ls.decode.add(us(dDecode))
	ls.prepare.add(us(dPrep))
	ls.aggregate.add(us(dAgg))
	ls.encode.add(us(dEnc))
	ls.respKB.add(float64(len(body)) / 1024)
	ls.overhead.add(us(handler - dDecode - dPrep - dEval - dAgg - dEnc))
	ls.eval[mode].add(us(dEval))
	ls.evalSpans(tr, evalStart, dEval)
	ls.prepares++
	if cached {
		ls.prepareHits++
	}
	ls.countIndex(before, after, 1)
	relevant := map[int]bool{}
	for _, emb := range q.Embeddings {
		for _, mi := range core.FilterMappings(ds.Set, emb) {
			relevant[mi] = true
		}
	}
	ls.relevant.add(float64(len(relevant)))
	n := 0
	for _, res := range results {
		n += len(res.Matches)
		if mode != "topk" && len(res.Matches) > 0 {
			ls.nonempty++
		}
	}
	if mode != "topk" {
		ls.results += float64(len(results))
	}
	ls.matches.add(float64(n))
	return body, nil
}

func (ls *layerStats) countIndex(before, after index.CountersSnapshot, queries int) {
	d := after.Sub(before)
	ls.idx.Evals += d.Evals
	ls.idx.MemoHits += d.MemoHits
	ls.idx.Candidates += d.Candidates
	ls.idx.ReachSurvivors += d.ReachSurvivors
	ls.idx.DecodedBlocks += d.DecodedBlocks
	ls.queries += float64(queries)
}

func (r *replayer) batch(o *op, record bool) ([]byte, error) {
	tr := &tracer{}
	var req server.BatchRequest
	if err := json.NewDecoder(bytes.NewReader(o.body)).Decode(&req); err != nil {
		return nil, err
	}
	ds := r.cat.Get(req.Dataset)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	snaps := ds.Snapshots()
	eng := ds.Engine.Sub(budget(ds)).WithContext(ctx)
	docs, epoch := pinned(snaps)
	sh := engine.Shards{Docs: docs, Observe: tr.observe}
	reqs := make([]engine.Request, len(req.Queries))
	for i, bq := range req.Queries {
		reqs[i] = engine.Request{Pattern: bq.Pattern, K: bq.K}
	}
	before := index.GlobalCounters()
	var answers []engine.Response
	evalStart := time.Now()
	dEval := timed(func() { answers = eng.EvaluateBatchAcross(ds.Set, sh, ds.Tree, reqs) })
	after := index.GlobalCounters()
	resp := server.BatchResponse{Dataset: req.Dataset, Epoch: epoch, Responses: make([]server.BatchAnswer, len(answers))}
	for i, er := range answers {
		if er.Err != nil {
			return nil, er.Err
		}
		resp.Responses[i] = server.BatchAnswer{Pattern: er.Pattern, K: er.K,
			Results: core.ToWire(er.Results), Answers: core.AnswersToWire(core.AggregateLeaf(er.Query, er.Results))}
	}
	body := encodeJSON(resp)
	if record {
		ls := r.ls
		ls.eval["batch"].add(us(dEval))
		ls.evalSpans(tr, evalStart, dEval)
		ls.countIndex(before, after, len(reqs))
	}
	return body, nil
}

func (r *replayer) mutate(o *op, record bool) ([]byte, error) {
	var req server.MutateRequest
	if err := json.NewDecoder(bytes.NewReader(o.body)).Decode(&req); err != nil {
		return nil, err
	}
	if err := delta.Validate(req.Edits); err != nil {
		return nil, err
	}
	ds := r.cat.Get(req.Dataset)
	shard := ds.Shards()[req.Shard]
	var appendDur time.Duration
	logged := func(epoch uint64, edits []delta.Edit) error {
		start := time.Now()
		err := shard.Log.Append(epoch, edits)
		appendDur += time.Since(start)
		return err
	}
	size0 := fileSize(shard.EditLogPath())
	start := time.Now()
	snap, err := shard.Live.ApplyLogged(req.Edits, logged)
	dApply := time.Since(start)
	if err != nil {
		return nil, err
	}
	body := encodeJSON(server.MutateResponse{Dataset: req.Dataset, Shard: req.Shard, Epoch: snap.Epoch,
		Applied: len(req.Edits), DocNodes: snap.Doc.Len(), Persisted: shard.Log.Durable()})
	if record {
		ls := r.ls
		ls.apply.add(us(dApply - appendDur))
		ls.appendUS.add(us(appendDur))
		ls.overlay.add(float64(snap.Index.Stats().Overlays))
		ls.logBytes += float64(fileSize(shard.EditLogPath()) - size0)
		ls.edits += float64(len(req.Edits))
	}
	return body, nil
}

func fileSize(path string) int64 {
	if path == "" {
		return 0
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// setupLayers times the catalog build's layers one by one, in the
// order buildDataset runs them, then the whole catalog build.
func setupLayers(w workload, dir string, m map[string]metric) error {
	e := w.entry()
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	start := time.Now()
	d, err := dataset.Load(e.Dataset)
	if err != nil {
		return err
	}
	m["dataset.load_ms"] = metric{ms(time.Since(start)), "ms"}
	start = time.Now()
	set, err := mapgen.TopH(d.Matching, e.Mappings, mapgen.Partition)
	if err != nil {
		return err
	}
	m["mapgen.toph_ms"] = metric{ms(time.Since(start)), "ms"}
	start = time.Now()
	var docs []*xmltree.Document
	if e.Shards > 1 {
		docs = d.OrderCorpus(e.Shards, e.DocNodes, e.DocSeed)
	} else {
		docs = []*xmltree.Document{d.OrderDocument(e.DocNodes, e.DocSeed)}
	}
	m["dataset.docgen_ms"] = metric{ms(time.Since(start)), "ms"}
	start = time.Now()
	for _, doc := range docs {
		index.Build(doc)
	}
	m["index.build_ms"] = metric{ms(time.Since(start)), "ms"}
	start = time.Now()
	if _, err := core.Build(set, core.Options{Tau: e.Tau}); err != nil {
		return err
	}
	m["core.blocktree_ms"] = metric{ms(time.Since(start)), "ms"}
	start = time.Now()
	if _, err := buildCatalog(w, dir); err != nil {
		return err
	}
	m["server.catalog_ms"] = metric{ms(time.Since(start)), "ms"}
	return nil
}

// runTraced produces the per-layer metrics.
func runTraced(w workload, seed int64, d time.Duration) (report, error) {
	header(w, seed, d, true)
	dir, err := runDir()
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)
	m := map[string]metric{}
	if err := setupLayers(w, filepath.Join(dir, "layers"), m); err != nil {
		return report{}, fmt.Errorf("set-up layers: %w", err)
	}

	// The untraced closed loop, read through runtime/metrics.
	l, err := startServer(w, filepath.Join(dir, "serve"))
	if err != nil {
		return report{}, err
	}
	defer l.close()
	if err := w.init(l.dataset(), seed); err != nil {
		return report{}, err
	}
	clients := make([]*clientState, w.clients())
	for i := range clients {
		clients[i] = newClientState(l.url, w.stream(i))
		defer clients[i].http.CloseIdleConnections()
	}
	for _, c := range clients {
		c.runCycle(false)
	}
	ph := measure(clients, d, true)
	var ck checker
	w.check(&ck, clients, l)
	l.close()
	lat, attempted, failed := merge(clients)
	completed := 0
	for k := range lat {
		completed += len(lat[k])
	}
	perOp := func(v float64) float64 { return v / float64(max(completed, 1)) }
	m["runtime.alloc_kb_per_op"] = metric{perOp(float64(ph.after.allocBytes-ph.before.allocBytes) / 1024), "kb"}
	m["runtime.allocs_per_op"] = metric{perOp(float64(ph.after.allocObjects - ph.before.allocObjects)), "count"}
	m["runtime.gc_cpu_frac"] = metric{ratio(ph.after.gcCPU-ph.before.gcCPU, ph.after.totalCPU-ph.before.totalCPU), "ratio"}
	m["runtime.heap_peak_mb"] = metric{ph.heapPeakMB, "MB"}
	fmt.Printf("untraced loop: %d operations in %.3f s, steal ticks %d\n", completed, ph.wall.Seconds(), ph.steal)

	// The handler pass and the traced replay, on two fresh catalogs.
	la, err := startServer(w, filepath.Join(dir, "handler"))
	if err != nil {
		return report{}, err
	}
	defer la.close()
	catB, err := buildCatalog(w, filepath.Join(dir, "replay"))
	if err != nil {
		return report{}, err
	}
	if err := w.init(catB.Get(datasetName), seed); err != nil {
		return report{}, err
	}
	ls := newLayerStats()
	rp := &replayer{cat: catB, ls: ls}
	streams := make([]stream, w.clients())
	for i := range streams {
		streams[i] = w.stream(i)
	}
	replayed := 0
	one := func(s stream, timed bool) (bool, error) {
		o, end := s.next()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, kindPaths[o.kind], bytes.NewReader(o.body))
		start := time.Now()
		la.srv.ServeHTTP(rec, req)
		handler := time.Since(start)
		if rec.Code != http.StatusOK {
			return end, fmt.Errorf("handler %s: status %d: %.200s", brief(o), rec.Code, rec.Body.Bytes())
		}
		if !timed {
			handler = 0
		}
		body, err := rp.replay(o, handler)
		if err != nil {
			return end, fmt.Errorf("replay %s: %w", brief(o), err)
		}
		if !bytes.Equal(body, rec.Body.Bytes()) {
			ls.mismatches++
		}
		s.done(o, http.StatusOK, body)
		replayed++
		return end, nil
	}
	for _, s := range streams {
		for end := false; !end; {
			if end, err = one(s, false); err != nil {
				return report{}, err
			}
		}
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		for _, s := range streams {
			for end := false; !end; {
				if end, err = one(s, true); err != nil {
					return report{}, err
				}
			}
		}
	}
	if ls.mismatches > 0 {
		ck.failf("%d replayed responses differ from the handler's", ls.mismatches)
	}
	fmt.Printf("traced replay: %d operations, %d differ from the handler's response\n", replayed, ls.mismatches)
	fmt.Printf("checks: %d responses checked, %d of them against the oracle, %d failures\n", ck.checked, ck.oracle, len(ck.errs))
	for _, e := range ck.errs {
		fmt.Printf("  CHECK FAILED: %s\n", e)
	}

	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	put("server.handler_us", ls.handler.mean(), "us")
	put("server.decode_us", ls.decode.mean(), "us")
	put("server.overhead_us", ls.overhead.mean(), "us")
	put("server.encode_us", ls.encode.mean(), "us")
	put("server.resp_kb", ls.respKB.mean(), "kb")
	put("engine.prepare_us", ls.prepare.mean(), "us")
	put("engine.prepare_hit_ratio", ratio(ls.prepareHits, ls.prepares), "ratio")
	put("engine.eval_basic_us", ls.eval["basic"].mean(), "us")
	put("engine.eval_compact_us", ls.eval["compact"].mean(), "us")
	put("engine.eval_topk_us", ls.eval["topk"].mean(), "us")
	put("engine.eval_batch_us", ls.eval["batch"].mean(), "us")
	put("engine.shard_eval_us", ls.shardEval.mean(), "us")
	put("engine.shard_skew", ls.shardSkew.mean(), "ratio")
	put("engine.gather_us", ls.gather.mean(), "us")
	put("core.relevant_per_query", ls.relevant.mean(), "count")
	put("core.nonempty_ratio", ratio(ls.nonempty, ls.results), "ratio")
	put("core.matches_per_query", ls.matches.mean(), "count")
	put("core.aggregate_us", ls.aggregate.mean(), "us")
	put("index.evals_per_query", ratio(float64(ls.idx.Evals), ls.queries), "count")
	put("index.memo_hit_ratio", ratio(float64(ls.idx.MemoHits), float64(ls.idx.Evals)), "ratio")
	put("index.survivor_ratio", ratio(float64(ls.idx.ReachSurvivors), float64(ls.idx.Candidates)), "ratio")
	put("index.decoded_blocks_per_eval", ratio(float64(ls.idx.DecodedBlocks), float64(ls.idx.Evals)), "count")
	put("delta.apply_us", ls.apply.mean(), "us")
	put("delta.overlay_depth", ls.overlay.mean(), "count")
	put("replica.append_us", ls.appendUS.mean(), "us")
	put("store.log_bytes_per_edit", ratio(ls.logBytes, ls.edits), "bytes")
	printMetrics(m)
	return report{
		Correct:   len(ck.errs) == 0,
		Attempted: sumInts(attempted[:]),
		Failed:    sumInts(failed[:]),
		Metrics:   m,
	}, nil
}
