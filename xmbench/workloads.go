package main

// The three workloads. Each builds its catalog entry, derives its inputs
// from the served data and the seed, and hands every client a
// deterministic stream of operations cut into cycles: a client checks
// the clock only at the end of a cycle, so every run attempts whole
// cycles and the operation mix is the same whatever the run length.

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"xmatch/internal/dataset"
	"xmatch/internal/delta"
	"xmatch/internal/mapping"
	"xmatch/internal/server"
	"xmatch/internal/store"
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

type opKind int

const (
	kindQuery opKind = iota
	kindBatch
	kindMutate
	numKinds
)

var kindNames = [numKinds]string{"query", "batch", "mutate"}

var kindPaths = [numKinds]string{"/v1/query", "/v1/batch", "/v1/admin/mutate"}

// op is one request plus what the output checks need to know about it.
type op struct {
	kind opKind
	body []byte

	query *server.QueryRequest
	batch *server.BatchRequest

	// values maps each value-predicate pattern node (by preorder index)
	// to its value, per query (one entry for a query, one per batch
	// member).
	values []map[int]string
	// sentinel, when set, is a text the response must bind.
	sentinel string
	// oracle marks the op for an oracle comparison after the run.
	oracle bool
	// fixed marks an op replayed verbatim every cycle: only its first
	// response is kept, later ones must repeat its length.
	fixed bool
	// keep retains the op's response for the checks.
	keep bool
}

func newQuery(q server.QueryRequest) *op {
	o := &op{kind: kindQuery, query: &q}
	o.body, _ = json.Marshal(q)
	return o
}

func newBatch(b server.BatchRequest) *op {
	o := &op{kind: kindBatch, batch: &b}
	o.body, _ = json.Marshal(b)
	return o
}

func newMutate(m server.MutateRequest) *op {
	o := &op{kind: kindMutate}
	o.body, _ = json.Marshal(m)
	return o
}

// brief is the op's request body, cut short for messages.
func brief(o *op) string {
	if len(o.body) > 160 {
		return string(o.body[:160]) + "…"
	}
	return string(o.body)
}

// stream is one client's operation source. next returns the next op and
// whether it ends a cycle; done sees every response, in order, before
// next is called again.
type stream interface {
	next() (o *op, endOfCycle bool)
	done(o *op, status int, body []byte)
}

// workload is one benchmark workload.
type workload interface {
	name() string
	entry() store.CatalogEntry
	clients() int
	// init derives the workload's inputs from the served dataset and
	// the seed. It runs once per catalog the run serves from, so it must
	// not depend on anything but the dataset's pristine state and seed.
	init(ds *server.Dataset, seed int64) error
	// stream returns client c's operation stream, always the same for
	// the same seed.
	stream(c int) stream
	// check runs the workload's output checks after the measured phase,
	// with the server still up; it may close it.
	check(c *checker, clients []*clientState, l *live)
}

const datasetName = "D7"

// The Table III templates, and the target labels whose values the value
// predicates draw from.
var valueFields = []string{"LineNo", "BPID", "Quantity", "City", "EMail"}

func workloadByName(n string) (workload, error) {
	switch n {
	case "table3-hot":
		return &table3Hot{}, nil
	case "param-cold":
		return &paramCold{}, nil
	case "rw-sharded":
		return &rwSharded{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want table3-hot, param-cold or rw-sharded)", n)
}

var workloadNames = []string{"table3-hot", "param-cold", "rw-sharded"}

// ---- table3-hot ----

// table3Hot is the paper's experiment: Q1-Q10 over the 3473-node Order
// document at |M| = 100, every query in basic, compact and top-k mode,
// and every tenth operation a batch of Q1-Q10. After the warm-up every
// pattern hits the prepared-query cache and the index result memo.
type table3Hot struct {
	seed    int64
	queries []*op
	batch   *op
}

const table3K = 10

func (w *table3Hot) name() string { return "table3-hot" }
func (w *table3Hot) clients() int { return 1 }
func (w *table3Hot) entry() store.CatalogEntry {
	return store.CatalogEntry{Name: datasetName, Dataset: "D7", Mappings: 100, DocNodes: 3473, DocSeed: 42, Tau: 0.2}
}

func (w *table3Hot) init(ds *server.Dataset, seed int64) error {
	w.seed = seed
	w.queries = w.queries[:0]
	for _, q := range dataset.Queries() {
		for _, mode := range []string{"basic", "compact", "topk"} {
			req := server.QueryRequest{Dataset: datasetName, Pattern: q.Text, Mode: mode}
			if mode == "topk" {
				req.K = table3K
			}
			o := newQuery(req)
			o.oracle, o.fixed = true, true
			w.queries = append(w.queries, o)
		}
	}
	breq := server.BatchRequest{Dataset: datasetName}
	for _, q := range dataset.Queries() {
		breq.Queries = append(breq.Queries, server.BatchQuery{Pattern: q.Text})
	}
	w.batch = newBatch(breq)
	w.batch.fixed = true
	return nil
}

func (w *table3Hot) check(c *checker, clients []*clientState, l *live) {
	checkTable3(c, clients, l.dataset())
}

func (w *table3Hot) stream(int) stream {
	return &table3Stream{w: w, rng: rand.New(rand.NewSource(w.seed))}
}

// table3Stream sends every query once per cycle, in a fresh seeded
// order each cycle so that no order effect (which query follows a
// batch, say) repeats run after run, with the batch after every ninth
// query: 30 queries and 3 batches.
type table3Stream struct {
	w     *table3Hot
	rng   *rand.Rand
	order []*op
	i     int
}

func (s *table3Stream) next() (*op, bool) {
	if s.i == 0 {
		s.order = append(s.order[:0], s.w.queries...)
		s.rng.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
	}
	s.i++
	n := len(s.order) + len(s.order)/9 // queries plus batches
	var o *op
	if s.i%10 == 0 {
		o = s.w.batch
	} else {
		o = s.order[s.i-1-s.i/10]
	}
	if s.i == n {
		s.i = 0
		return o, true
	}
	return o, false
}

func (s *table3Stream) done(*op, int, []byte) {}

// ---- shared query generation ----

// domains holds, per value field, the distinct texts the document
// carries at every source element some mapping maps one of the field's
// target elements to, sorted. A value drawn from it matches under the
// mappings that map the field to an element carrying it, and under no
// other, which is what keeps the answers to value-predicate queries small.
type domains map[string][]string

func valueDomains(set *mapping.Set, doc *xmltree.Document) domains {
	out := domains{}
	for _, f := range valueFields {
		paths := map[string]bool{}
		for _, m := range set.Mappings {
			for _, te := range set.Target.ByName(f) {
				if s, ok := m.SourceFor(te.ID); ok {
					paths[set.Source.ByID(s).Path] = true
				}
			}
		}
		seen := map[string]bool{}
		for p := range paths {
			for _, n := range doc.NodesByPath(p) {
				if n.Text != "" {
					seen[n.Text] = true
				}
			}
		}
		for v := range seen {
			out[f] = append(out[f], v)
		}
		sort.Strings(out[f])
	}
	return out
}

// selectiveValues is the smallest domain a value predicate must draw
// from to narrow a query to a few line items. On the generated Order
// documents only BPID and Quantity qualify: every LineNo reads "1", and
// the DeliverTo City and EMail are single per document.
const selectiveValues = 10

// modeMix is the evaluation-mode mix of the generated queries: basic,
// compact twice, and top-k.
var modeMix = []struct {
	mode string
	k    int
}{{"basic", 0}, {"compact", 0}, {"compact", 0}, {"topk", 10}}

// slot is one query of a fixed mix: a Table III shape and a mode.
type slot struct {
	tmpl, mode string
	k          int
}

// selectiveSlots pairs every Table III shape that has a node with a
// selective value domain with every entry of modeMix.
func selectiveSlots(dom domains) []slot {
	var out []slot
	for _, q := range dataset.Queries() {
		if selectiveNode(twig.MustParse(q.Text), dom) == nil {
			continue
		}
		for _, m := range modeMix {
			out = append(out, slot{q.Text, m.mode, m.k})
		}
	}
	return out
}

// selectiveNode is the pattern node with the largest value domain, if
// that domain is selective (ties go to the first in preorder).
func selectiveNode(p *twig.Pattern, dom domains) *twig.Node {
	var best *twig.Node
	for _, n := range p.Nodes() {
		if len(dom[n.Label]) >= selectiveValues && (best == nil || len(dom[n.Label]) > len(dom[best.Label])) {
			best = n
		}
	}
	return best
}

// paramQuery draws the values of one query of the given Table III
// shape: its selective node always carries a value predicate, and each
// node with a non-selective value domain carries one with probability
// one half. It returns the pattern text and the predicate values by
// pattern node.
func paramQuery(rng *rand.Rand, dom domains, tmpl string) (string, map[int]string) {
	p := twig.MustParse(tmpl)
	values := map[int]string{}
	set := func(n *twig.Node) {
		d := dom[n.Label]
		n.Value, n.HasValue = d[rng.Intn(len(d))], true
		values[n.Index] = n.Value
	}
	set(selectiveNode(p, dom))
	for _, n := range p.Nodes() {
		if d := len(dom[n.Label]); d > 0 && d < selectiveValues && rng.Intn(2) == 0 {
			set(n)
		}
	}
	return p.String(), values
}

// ---- param-cold ----

// paramCold is the cold-path workload: |M| = 500, a document about four
// times the paper's, two clients, and every request a Table III shape
// with seeded value predicates, so nearly every pattern is new to the
// prepared-query cache and the index memo. A client's cycle holds every
// (shape, mode) slot once, in seeded order, plus a batch after every
// eighth query; the seed draws the order and the values. Responses are
// only kept as lengths; the checks replay the same operations afterwards.
type paramCold struct {
	seed  int64
	dom   domains
	slots []slot
}

const (
	paramBatchEvery = 8  // queries between batches
	paramBatch      = 5  // queries per batch
	paramSampleOne  = 40 // about one op in this many is checked against the oracle
)

func (w *paramCold) name() string { return "param-cold" }
func (w *paramCold) clients() int { return 2 }
func (w *paramCold) entry() store.CatalogEntry {
	return store.CatalogEntry{Name: datasetName, Dataset: "D7", Mappings: 500, DocNodes: 4 * 3473, DocSeed: 42, Tau: 0.2}
}

func (w *paramCold) init(ds *server.Dataset, seed int64) error {
	w.seed = seed
	w.dom = valueDomains(ds.Set, ds.Doc())
	w.slots = selectiveSlots(w.dom)
	if len(w.slots) == 0 {
		return fmt.Errorf("param-cold: no Table III shape has a selective value domain")
	}
	return nil
}

func (w *paramCold) check(c *checker, clients []*clientState, l *live) {
	checkParamCold(c, w, clients, l)
}

func (w *paramCold) stream(c int) stream {
	return &paramStream{w: w, rng: rand.New(rand.NewSource(w.seed*1000003 + int64(c) + 7))}
}

type paramStream struct {
	w     *paramCold
	rng   *rand.Rand
	order []slot // this cycle's remaining query slots
	since int    // queries since the last batch
	b     int    // batches sent
}

func (s *paramStream) next() (*op, bool) {
	w := s.w
	if s.since == paramBatchEvery {
		s.since = 0
		b := server.BatchRequest{Dataset: datasetName}
		var values []map[int]string
		for j := 0; j < paramBatch; j++ {
			sl := w.slots[(s.b*paramBatch+j)%len(w.slots)]
			p, v := paramQuery(s.rng, w.dom, sl.tmpl)
			b.Queries = append(b.Queries, server.BatchQuery{Pattern: p, K: sl.k})
			values = append(values, v)
		}
		s.b++
		o := newBatch(b)
		o.values = values
		o.oracle = s.rng.Intn(paramSampleOne) == 0
		return o, len(s.order) == 0
	}
	if len(s.order) == 0 {
		s.order = append(s.order, w.slots...)
		s.rng.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
	}
	sl := s.order[0]
	s.order = s.order[1:]
	s.since++
	p, v := paramQuery(s.rng, w.dom, sl.tmpl)
	o := newQuery(server.QueryRequest{Dataset: datasetName, Pattern: p, Mode: sl.mode, K: sl.k})
	o.values = []map[int]string{v}
	o.oracle = s.rng.Intn(paramSampleOne) == 0
	return o, len(s.order) == 0 && s.since < paramBatchEvery
}

func (s *paramStream) done(*op, int, []byte) {}

// ---- rw-sharded ----

// rwSharded is the read-write workload over a 4-shard Order corpus with
// durable per-shard edit logs. Each client owns two shards and runs a
// seeded cycle of a mutate batch on one of them, a read of the batch's
// sentinel at the acknowledged epoch, selective pool reads (some with
// min_epoch) and a batch of pool reads.
type rwSharded struct {
	seed int64
	pool []poolQuery
	// sentinelPath is the source path the sentinel settext writes; the
	// sentinel read's pattern binds it through the most probable mapping.
	sentinelPath string
	// lineParent/linePos/linePath/lineXML describe the line-item insert:
	// parent path (ordinal 0), child position, the item's own path, and
	// its XML (a copy of the first line item).
	lineParent, linePath, lineXML string
	linePos                       int
}

type poolQuery struct {
	pattern string
	mode    string
	k       int
	values  map[int]string
}

const (
	rwShards    = 4
	rwPoolDraws = 8
	rwBatch     = 4
	sentinelQ   = "Order/DeliverTo/Contact/EMail"
	lineTarget  = "POLine"
)

func (w *rwSharded) name() string { return "rw-sharded" }
func (w *rwSharded) clients() int { return 2 }
func (w *rwSharded) entry() store.CatalogEntry {
	return store.CatalogEntry{Name: datasetName, Dataset: "D7", Mappings: 100, DocNodes: rwShards * 3473, DocSeed: 42,
		Shards: rwShards, Tau: 0.2, EditLogPath: "D7.editlog"}
}

func (w *rwSharded) init(ds *server.Dataset, seed int64) error {
	w.seed = seed
	set := ds.Set
	doc := ds.Shards()[0].Live.Snapshot().Doc
	m0 := set.Mappings[0]
	source := func(label string) (string, error) {
		for _, te := range set.Target.ByName(label) {
			if s, ok := m0.SourceFor(te.ID); ok {
				return set.Source.ByID(s).Path, nil
			}
		}
		return "", fmt.Errorf("rw-sharded: the most probable mapping does not map %s", label)
	}
	// The sentinel read's leaf is EMail under DeliverTo/Contact.
	p := twig.MustParse(sentinelQ)
	leaf := p.Nodes()[p.Size()-1]
	var err error
	embs, err := twig.ResolveOne(p, set.Target)
	if err != nil {
		return err
	}
	s, ok := m0.SourceFor(embs[0][leaf.Index])
	if !ok {
		return fmt.Errorf("rw-sharded: the most probable mapping does not map %s", sentinelQ)
	}
	w.sentinelPath = set.Source.ByID(s).Path
	if len(doc.NodesByPath(w.sentinelPath)) == 0 {
		return fmt.Errorf("rw-sharded: no sentinel node at %s", w.sentinelPath)
	}
	if w.linePath, err = source(lineTarget); err != nil {
		return err
	}
	items := doc.NodesByPath(w.linePath)
	if len(items) == 0 || items[0].Parent == nil {
		return fmt.Errorf("rw-sharded: no line item at %s", w.linePath)
	}
	first := items[0]
	parent := first.Parent
	w.lineParent = parent.Path
	if len(doc.NodesByPath(w.lineParent)) != 1 {
		return fmt.Errorf("rw-sharded: line items must share one parent")
	}
	for i, c := range parent.Children {
		if c == first {
			w.linePos = i
		}
	}
	// The inserted item keeps only the elements on the paths the queries
	// read (line number, part id, quantity, unit price), not the filler
	// subtrees of the schema's line item.
	keep := map[string]bool{}
	for _, label := range []string{"LineNo", "BPID", "Quantity", "UP"} {
		p, err := source(label)
		if err != nil {
			return err
		}
		keep[p] = true
	}
	var b bytes.Buffer
	writeXML(&b, first, keep)
	w.lineXML = b.String()

	// The pool holds rwPoolDraws value draws of every (shape, mode) slot
	// whose predicate is on BPID: a part id names one line item, so every
	// pool read answers about as much as any other, whatever the seed.
	rng := rand.New(rand.NewSource(seed*7919 + 3))
	dom := valueDomains(set, doc)
	w.pool = w.pool[:0]
	for d := 0; d < rwPoolDraws; d++ {
		for _, sl := range selectiveSlots(dom) {
			if selectiveNode(twig.MustParse(sl.tmpl), dom).Label != "BPID" {
				continue
			}
			pat, vals := paramQuery(rng, dom, sl.tmpl)
			w.pool = append(w.pool, poolQuery{pattern: pat, mode: sl.mode, k: sl.k, values: vals})
		}
	}
	if len(w.pool) == 0 {
		return fmt.Errorf("rw-sharded: no Table III shape has a selective value domain")
	}
	return nil
}

func (w *rwSharded) check(c *checker, clients []*clientState, l *live) {
	l.close()
	checkRWSharded(c, clients, w, l.dir)
}

func (w *rwSharded) stream(c int) stream {
	rng := rand.New(rand.NewSource(w.seed*1000003 + int64(c) + 11))
	return &rwStream{w: w, client: c, perm: rng.Perm(len(w.pool))}
}

// rwCycle is one client's cycle: M mutate, S sentinel read, R pool read
// (the first one after S carries min_epoch), B batch of pool reads.
const rwCycle = "MSRRBRRR"

type rwStream struct {
	w      *rwSharded
	client int
	// perm is the client's seeded order of the pool, read cyclically.
	perm []int
	pi   int
	i    int
	n    int // mutate batches sent
	// inserted records, per owned shard, that a line item is present.
	inserted  [rwShards]bool
	lastEpoch uint64
	sentinel  string
}

func (s *rwStream) nextPool() poolQuery {
	pq := s.w.pool[s.perm[s.pi%len(s.perm)]]
	s.pi++
	return pq
}

// shardFor is the shard the client's n-th mutate batch writes: client c
// owns shards c and c+2.
func (s *rwStream) shardFor(n int) int { return s.client + 2*(n%2) }

func (s *rwStream) next() (*op, bool) {
	step := rwCycle[s.i%len(rwCycle)]
	s.i++
	end := s.i%len(rwCycle) == 0
	w := s.w
	switch step {
	case 'M':
		shard := s.shardFor(s.n)
		s.n++
		s.sentinel = fmt.Sprintf("sentinel-c%d-s%d-n%d", s.client, shard, s.n)
		edits := []delta.Edit{{Op: delta.OpSetText, Path: w.sentinelPath, Text: s.sentinel}}
		if s.inserted[shard] {
			edits = append(edits, delta.Edit{Op: delta.OpDelete, Path: w.linePath})
		}
		edits = append(edits, delta.Edit{Op: delta.OpInsert, Path: w.lineParent, Pos: w.linePos, XML: w.lineXML})
		s.inserted[shard] = true
		o := newMutate(server.MutateRequest{Dataset: datasetName, Shard: shard, Edits: edits})
		o.sentinel, o.keep = s.sentinel, true
		return o, end
	case 'S':
		p := twig.MustParse(sentinelQ)
		leaf := p.Nodes()[p.Size()-1]
		leaf.Value, leaf.HasValue = s.sentinel, true
		o := newQuery(server.QueryRequest{Dataset: datasetName, Pattern: p.String(), Mode: "compact", MinEpoch: s.lastEpoch})
		o.sentinel, o.keep = s.sentinel, true
		o.values = []map[int]string{{leaf.Index: s.sentinel}}
		return o, end
	case 'B':
		b := server.BatchRequest{Dataset: datasetName, MinEpoch: s.lastEpoch}
		var values []map[int]string
		for j := 0; j < rwBatch; j++ {
			pq := s.nextPool()
			b.Queries = append(b.Queries, server.BatchQuery{Pattern: pq.pattern, K: pq.k})
			values = append(values, pq.values)
		}
		o := newBatch(b)
		o.values = values
		return o, end
	default: // 'R'
		pq := s.nextPool()
		req := server.QueryRequest{Dataset: datasetName, Pattern: pq.pattern, Mode: pq.mode, K: pq.k}
		if rwCycle[(s.i-2+len(rwCycle))%len(rwCycle)] == 'S' {
			req.MinEpoch = s.lastEpoch
		}
		o := newQuery(req)
		o.values = []map[int]string{pq.values}
		return o, end
	}
}

func (s *rwStream) done(o *op, status int, body []byte) {
	if o.kind != kindMutate || status != 200 {
		return
	}
	var resp server.MutateResponse
	if json.Unmarshal(body, &resp) == nil {
		s.lastEpoch = resp.Epoch
	}
}

// writeXML serializes the part of a subtree that lies on the paths to
// the kept nodes, as compact XML.
func writeXML(b *bytes.Buffer, n *xmltree.Node, keep map[string]bool) {
	b.WriteString("<" + n.Label + ">")
	_ = xml.EscapeText(b, []byte(n.Text))
	for _, c := range n.Children {
		for p := range keep {
			if p == c.Path || strings.HasPrefix(p, c.Path+".") {
				writeXML(b, c, keep)
				break
			}
		}
	}
	b.WriteString("</" + n.Label + ">")
}
