package main

// Output checks. They run after the measured phase and compare what the
// server answered with the oracle and with properties every answer must
// have; none of them compares against a saved copy of earlier output.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"

	"xmatch/internal/core"
	"xmatch/internal/mapping"
	"xmatch/internal/server"
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

// checker accumulates the number of responses checked and the failures.
type checker struct {
	checked int
	oracle  int // of them compared with the oracle
	errs    []string
}

func (c *checker) failf(format string, args ...any) {
	if len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// wire decodes the parts of a query or batch answer the checks read;
// the raw forms keep the exact bytes for identity comparisons.
type wireQuery struct {
	Results    []core.WireResult `json:"results"`
	Answers    []core.WireAnswer `json:"answers"`
	RawResults json.RawMessage   `json:"-"`
	RawAnswers json.RawMessage   `json:"-"`
}

func decodeQuery(body []byte) (wireQuery, error) {
	var raw struct {
		Results json.RawMessage `json:"results"`
		Answers json.RawMessage `json:"answers"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		return wireQuery{}, err
	}
	return decodeParts(raw.Results, raw.Answers)
}

func decodeParts(results, answers json.RawMessage) (wireQuery, error) {
	q := wireQuery{RawResults: results, RawAnswers: answers}
	if err := json.Unmarshal(results, &q.Results); err != nil {
		return q, err
	}
	if err := json.Unmarshal(answers, &q.Answers); err != nil {
		return q, err
	}
	return q, nil
}

func decodeBatch(body []byte) ([]wireQuery, error) {
	var raw struct {
		Responses []struct {
			Pattern string          `json:"pattern"`
			Results json.RawMessage `json:"results"`
			Answers json.RawMessage `json:"answers"`
			Error   string          `json:"error"`
		} `json:"responses"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, err
	}
	out := make([]wireQuery, len(raw.Responses))
	for i, r := range raw.Responses {
		if r.Error != "" {
			return nil, fmt.Errorf("batch query %d (%s): %s", i, r.Pattern, r.Error)
		}
		q, err := decodeParts(r.Results, r.Answers)
		if err != nil {
			return nil, err
		}
		out[i] = q
	}
	return out, nil
}

// answersOf decodes every answer an op received, one per query.
func answersOf(k kept) ([]wireQuery, error) {
	if k.o.kind == kindBatch {
		return decodeBatch(k.body)
	}
	q, err := decodeQuery(k.body)
	return []wireQuery{q}, err
}

// checkValues asserts that every binding of a value-predicate node
// carries the predicate's value. It scans the response bytes instead of
// decoding them: answers run to hundreds of kilobytes, and the binding
// objects have the fixed field order encoding/json gives core.WireBinding.
func (c *checker) checkValues(k kept) {
	if len(k.o.values) == 0 {
		return
	}
	q := -1 // index of the query whose answer the scan is in
	body := k.body
	nextAnswer := []byte(`"results":`)
	binding := []byte(`{"node":`)
	ia := bytes.Index(body, nextAnswer)
	for {
		ib := bytes.Index(body, binding)
		if ib < 0 {
			return
		}
		for ia >= 0 && ia < ib {
			q++
			body = body[ia+len(nextAnswer):]
			ib -= ia + len(nextAnswer)
			ia = bytes.Index(body, nextAnswer)
		}
		if q < 0 || q >= len(k.o.values) {
			c.failf("%s: binding outside an answer", k.o.body)
			return
		}
		node, text, n, err := parseBinding(body[ib:])
		if err != nil {
			c.failf("%s: %v", k.o.body, err)
			return
		}
		if v, ok := k.o.values[q][node]; ok && text != v {
			c.failf("%s: node %d bound %q, predicate wants %q", k.o.body, node, text, v)
			return
		}
		body = body[ib+n:]
		if ia >= 0 {
			ia -= ib + n
		}
	}
}

// parseBinding reads one {"node":N,"path":"…","start":S[,"text":"…"]}
// object and returns its node, its text and its length in bytes.
func parseBinding(b []byte) (node int, text string, n int, err error) {
	bad := func() (int, string, int, error) {
		return 0, "", 0, fmt.Errorf("malformed binding %.80q", b)
	}
	i := len(`{"node":`)
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		node = node*10 + int(b[i]-'0')
	}
	// The path is a quoted string; start follows it.
	j := bytes.Index(b[i:], []byte(`,"start":`))
	if j < 0 {
		return bad()
	}
	i += j + len(`,"start":`)
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	if i < len(b) && b[i] == '}' {
		return node, "", i + 1, nil
	}
	if !bytes.HasPrefix(b[i:], []byte(`,"text":"`)) {
		return bad()
	}
	start := i + len(`,"text":`)
	escaped := false
	for i = start + 1; i < len(b) && b[i] != '"'; i++ {
		if b[i] == '\\' {
			escaped = true
			i++
		}
	}
	if i+1 >= len(b) || b[i+1] != '}' {
		return bad()
	}
	text = string(b[start+1 : i])
	if escaped {
		if err := json.Unmarshal(b[start:i+1], &text); err != nil {
			return bad()
		}
	}
	return node, text, i + 2, nil
}

// queryOf lists the (pattern, mode, k) of each query an op carries.
type querySpec struct {
	pattern, mode string
	k             int
}

func specsOf(o *op) []querySpec {
	if o.kind == kindBatch {
		var out []querySpec
		for _, q := range o.batch.Queries {
			mode := "compact"
			if q.K > 0 {
				mode = "topk"
			}
			out = append(out, querySpec{q.Pattern, mode, q.K})
		}
		return out
	}
	mode := o.query.Mode
	if mode == "" {
		mode = "compact"
	}
	return []querySpec{{o.query.Pattern, mode, o.query.K}}
}

// checkOracle compares one answer with the oracle's over the given
// document roots: the same relevant mappings (restricted to the k most
// probable for top-k, Definition 5) with the same probabilities, the same
// set of matches per mapping, and the same aggregated leaf answers.
func (c *checker) checkOracle(spec querySpec, got wireQuery, set *mapping.Set, roots []*xmltree.Node) {
	c.checked++
	c.oracle++
	p, err := twig.Parse(spec.pattern)
	if err != nil {
		c.failf("%s: %v", spec.pattern, err)
		return
	}
	want := oraclePTQ(p, set, roots)
	if spec.mode == "topk" {
		want = topK(want, spec.k, oracleKey)
	}
	where := spec.mode + " " + spec.pattern
	if len(got.Results) != len(want) {
		c.failf("%s: %d results, oracle has %d", where, len(got.Results), len(want))
		return
	}
	for i, w := range want {
		g := got.Results[i]
		if g.MappingIndex != w.Mapping || g.Prob != w.Prob {
			c.failf("%s: result %d is mapping %d (p=%v), oracle has mapping %d (p=%v)", where, i, g.MappingIndex, g.Prob, w.Mapping, w.Prob)
			return
		}
		gm := make([]oMatch, len(g.Matches))
		for j, m := range g.Matches {
			for _, b := range m.Bindings {
				gm[j] = append(gm[j], oBinding{Node: b.Node, Start: b.Start, Path: b.Path, Text: b.Text})
			}
			sort.Slice(gm[j], func(a, b int) bool { return gm[j][a].Node < gm[j][b].Node })
		}
		sortMatches(gm)
		if len(gm) != len(w.Matches) {
			c.failf("%s: mapping %d has %d matches, oracle has %d", where, w.Mapping, len(gm), len(w.Matches))
			return
		}
		for j := range gm {
			if gm[j].key() != w.Matches[j].key() || fmt.Sprint(gm[j]) != fmt.Sprint(w.Matches[j]) {
				c.failf("%s: mapping %d match %d is %v, oracle has %v", where, w.Mapping, j, gm[j], w.Matches[j])
				return
			}
		}
	}
	wantAns := oracleAnswers(want, p.Size()-1)
	if len(got.Answers) != len(wantAns) {
		c.failf("%s: %d answers, oracle has %d", where, len(got.Answers), len(wantAns))
		return
	}
	probs := map[string]float64{}
	for _, a := range wantAns {
		probs[strings.Join(a.Values, "\x00")] = a.Prob
	}
	for _, a := range got.Answers {
		wp, ok := probs[strings.Join(a.Values, "\x00")]
		if !ok || math.Abs(wp-a.Prob) > 1e-9 {
			c.failf("%s: answer %q with p=%v, oracle has p=%v (present %v)", where, a.Values, a.Prob, wp, ok)
			return
		}
	}
}

// topK keeps the results of the k most probable relevant mappings (ties
// go to the lower index), in mapping order: Definition 5's answer from
// the full one.
func topK[R any](rs []R, k int, key func(R) (mapping int, prob float64)) []R {
	if k >= len(rs) {
		return rs
	}
	order := append([]R(nil), rs...)
	sort.SliceStable(order, func(i, j int) bool {
		mi, pi := key(order[i])
		mj, pj := key(order[j])
		if pi != pj {
			return pi > pj
		}
		return mi < mj
	})
	keep := map[int]bool{}
	for _, r := range order[:k] {
		m, _ := key(r)
		keep[m] = true
	}
	out := []R{}
	for _, r := range rs {
		if m, _ := key(r); keep[m] {
			out = append(out, r)
		}
	}
	return out
}

func oracleKey(r oResult) (int, float64)       { return r.Mapping, r.Prob }
func wireKey(r core.WireResult) (int, float64) { return r.MappingIndex, r.Prob }

func docRoots(ds *server.Dataset) []*xmltree.Node {
	var roots []*xmltree.Node
	for _, sn := range ds.Snapshots() {
		roots = append(roots, sn.Doc.Root)
	}
	return roots
}

// checkTable3 checks the first response to every distinct request
// against the oracle, that basic and compact results are byte-identical,
// that each top-k answer is the compact one restricted to the k most
// probable relevant mappings, and that each batch answer equals the
// compact query's. Later responses must repeat the first one's length.
func checkTable3(c *checker, clients []*clientState, ds *server.Dataset) {
	roots := docRoots(ds)
	byMode := map[string]map[string]wireQuery{} // pattern -> mode -> answer
	var batches []kept
	for _, cl := range clients {
		if cl.lenMismatch > 0 {
			c.failf("%d responses differ in length from the first response to the same request", cl.lenMismatch)
		}
		c.checked += sumInts(cl.attempted[:]) - len(cl.kept)
		for _, k := range cl.kept {
			if k.o.kind == kindBatch {
				batches = append(batches, k)
				continue
			}
			spec := specsOf(k.o)[0]
			q, err := decodeQuery(k.body)
			if err != nil {
				c.failf("%s: %v", k.o.body, err)
				continue
			}
			c.checkOracle(spec, q, ds.Set, roots)
			if byMode[spec.pattern] == nil {
				byMode[spec.pattern] = map[string]wireQuery{}
			}
			byMode[spec.pattern][spec.mode] = q
		}
	}
	for pattern, m := range byMode {
		basic, compact, top := m["basic"], m["compact"], m["topk"]
		if !bytes.Equal(basic.RawResults, compact.RawResults) || !bytes.Equal(basic.RawAnswers, compact.RawAnswers) {
			c.failf("%s: basic and compact answers differ", pattern)
		}
		restricted := topK(compact.Results, table3K, wireKey)
		want, _ := json.Marshal(restricted)
		if !bytes.Equal(want, top.RawResults) {
			c.failf("%s: top-%d results are not the compact results of the %d most probable mappings", pattern, table3K, table3K)
		}
	}
	for _, k := range batches {
		qs, err := decodeBatch(k.body)
		if err != nil {
			c.failf("batch: %v", err)
			continue
		}
		c.checked++
		for i, spec := range specsOf(k.o) {
			want := byMode[spec.pattern]["compact"]
			if !bytes.Equal(qs[i].RawResults, want.RawResults) || !bytes.Equal(qs[i].RawAnswers, want.RawAnswers) {
				c.failf("batch query %s differs from its /v1/query answer", spec.pattern)
			}
		}
	}
}

// checkParamCold replays every client's operations, in order, on the
// still-running server: each response must have the length its
// counterpart had in the timed phase and carry its value predicates, and
// the sampled ones must agree with the oracle. Only lengths are kept
// while timing because the answers at |M| = 500 run to hundreds of
// kilobytes each.
func checkParamCold(c *checker, w *paramCold, clients []*clientState, l *live) {
	ds := l.dataset()
	roots := docRoots(ds)
	// Each client's replay runs on its own connection and checker, like
	// its timed loop.
	part := make([]checker, len(clients))
	var wg sync.WaitGroup
	for ci, cl := range clients {
		wg.Add(1)
		go func(c *checker, s stream, lens []int) {
			defer wg.Done()
			hc := newHTTPClient()
			defer hc.CloseIdleConnections()
			for _, n := range lens {
				o, _ := s.next()
				status, body, err := send(hc, l.url, o)
				if err != nil || status != 200 {
					c.failf("replay %s: status %d: %v", o.body, status, err)
					continue
				}
				c.checked++
				if len(body) != n {
					c.failf("replay %s: %d bytes, %d in the timed phase", o.body, len(body), n)
				}
				k := kept{o: o, body: body}
				c.checkValues(k)
				if !o.oracle {
					continue
				}
				qs, err := answersOf(k)
				if err != nil {
					c.failf("%s: %v", o.body, err)
					continue
				}
				for i, spec := range specsOf(o) {
					c.checkOracle(spec, qs[i], ds.Set, roots)
				}
			}
		}(&part[ci], w.stream(ci), cl.lens)
	}
	wg.Wait()
	for _, p := range part {
		c.checked += p.checked
		c.oracle += p.oracle
		for _, e := range p.errs {
			c.failf("%s", e)
		}
	}
}

// checkRWSharded checks every sentinel read, then rebuilds the catalog
// from the run's edit logs — the restart path of xmatchd — and checks
// that every acknowledged batch replayed: each shard's epoch equals its
// acknowledged batch count, each acknowledged sentinel is in its
// record, the last one per shard is in the document, and a sample of
// queries agrees with the oracle over the restarted shards.
func checkRWSharded(c *checker, clients []*clientState, w *rwSharded, dir string) {
	type ack struct {
		epoch    uint64
		sentinel string
	}
	acks := make([][]ack, rwShards)
	for _, cl := range clients {
		for _, k := range cl.kept {
			c.checked++
			switch {
			case k.o.kind == kindMutate:
				var resp server.MutateResponse
				if err := json.Unmarshal(k.body, &resp); err != nil || !resp.Persisted {
					c.failf("mutate %s: undecodable or unpersisted ack %s", k.o.body, k.body)
					continue
				}
				acks[resp.Shard] = append(acks[resp.Shard], ack{resp.Epoch, k.o.sentinel})
			case k.o.sentinel != "":
				q, err := decodeQuery(k.body)
				if err != nil || !bindsText(q, k.o.sentinel) {
					c.failf("sentinel %s not found by the read at its acknowledged epoch", k.o.sentinel)
				}
			}
		}
	}

	cat, err := buildCatalog(w, dir)
	if err != nil {
		c.failf("restart from the edit logs: %v", err)
		return
	}
	ds := cat.Get(datasetName)
	for i, sh := range ds.Shards() {
		snap := sh.Live.Snapshot()
		if snap.Epoch != uint64(len(acks[i])) {
			c.failf("shard %d restarted at epoch %d, %d batches were acknowledged", i, snap.Epoch, len(acks[i]))
		}
		texts := map[uint64]string{}
		for _, rec := range sh.Log.Records() {
			for _, e := range rec.Edits {
				if e.Op == "settext" {
					texts[rec.Epoch] = e.Text
				}
			}
		}
		for _, a := range acks[i] {
			c.checked++
			if texts[a.epoch] != a.sentinel {
				c.failf("shard %d: acknowledged sentinel %s missing from the replayed record of epoch %d", i, a.sentinel, a.epoch)
			}
		}
		if n := len(acks[i]); n > 0 {
			last := acks[i][n-1].sentinel
			p := twig.MustParse(sentinelQ)
			leaf := p.Nodes()[p.Size()-1]
			leaf.Value, leaf.HasValue = last, true
			found := false
			for _, r := range oraclePTQ(p, ds.Set, []*xmltree.Node{snap.Doc.Root}) {
				found = found || len(r.Matches) > 0
			}
			c.checked++
			if !found {
				c.failf("shard %d: last acknowledged sentinel %s absent after restart", i, last)
			}
		}
	}

	// Serve the restarted catalog and compare the pool queries with the
	// oracle over the restarted shard documents in shard order.
	srv, err := server.New(func() (*server.Catalog, error) { return cat, nil }, server.Options{Logger: discardLogger})
	if err != nil {
		c.failf("serving the restarted catalog: %v", err)
		return
	}
	defer srv.Close()
	roots := docRoots(ds)
	for _, pq := range w.pool {
		req := server.QueryRequest{Dataset: datasetName, Pattern: pq.pattern, Mode: pq.mode, K: pq.k}
		body, _ := json.Marshal(req)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			c.failf("restarted %s: status %d: %s", body, rec.Code, rec.Body.Bytes())
			continue
		}
		q, err := decodeQuery(rec.Body.Bytes())
		if err != nil {
			c.failf("restarted %s: %v", body, err)
			continue
		}
		c.checkOracle(querySpec{pq.pattern, pq.mode, pq.k}, q, ds.Set, roots)
	}
}

func bindsText(q wireQuery, text string) bool {
	for _, r := range q.Results {
		for _, m := range r.Matches {
			for _, b := range m.Bindings {
				if b.Text == text {
					return true
				}
			}
		}
	}
	return false
}

func sumInts(v []int) int {
	n := 0
	for _, x := range v {
		n += x
	}
	return n
}
