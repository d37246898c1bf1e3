package main

// The oracle answers a probabilistic twig query straight from the paper's
// definition (Definitions 4 and 5), with none of the evaluation machinery
// under test: no block tree, no positional index, no prepared-query
// cache. It parses the pattern text with twig.Parse and reads the schemas,
// the mapping set and the document as plain data; everything else —
// embedding the pattern into the target schema, choosing the relevant
// mappings, rewriting each pattern node to its mapped source path and
// matching the rewritten twig — is written out here by naive search.

import (
	"sort"
	"strconv"
	"strings"

	"xmatch/internal/mapping"
	"xmatch/internal/schema"
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

// oBinding is one pattern node bound to one document node.
type oBinding struct {
	Node  int // pattern node preorder index
	Start int
	Path  string
	Text  string
}

// oMatch is one match: one binding per pattern node, in preorder.
type oMatch []oBinding

func (m oMatch) key() string {
	var b strings.Builder
	for _, x := range m {
		b.WriteString(strconv.Itoa(x.Node))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(x.Start))
		b.WriteByte(' ')
	}
	return b.String()
}

// oResult is the answer through one relevant mapping: its index in the
// set, its probability, and its matches in canonical order.
type oResult struct {
	Mapping int
	Prob    float64
	Matches []oMatch
}

// oAnswer is one aggregated answer: the set of values bound to the leaf
// pattern node by one mapping, with the summed probability of every
// mapping producing exactly that set.
type oAnswer struct {
	Values []string
	Prob   float64
}

// oraclePTQ answers the pattern over the forest of document roots (one
// root for a plain document; the shard roots in shard order for a sharded
// collection). A mapping is relevant when it maps every pattern node of
// some embedding; its result is the union, over those embeddings, of the
// matches of the rewritten twig. Results are ordered by mapping index.
func oraclePTQ(p *twig.Pattern, set *mapping.Set, roots []*xmltree.Node) []oResult {
	srcPath := schemaPaths(set.Source)
	var out []oResult
	embs := embeddings(p, set.Target)
	// Mappings that rewrite the pattern to the same source paths have the
	// same matches; the memo computes each distinct rewrite once.
	memo := map[string][]oMatch{}
	for mi, m := range set.Mappings {
		src := map[int]int{}
		for _, pr := range m.Pairs {
			src[pr.T] = pr.S
		}
		relevant := false
		seen := map[string]bool{}
		var matches []oMatch
		for _, emb := range embs {
			paths := make([]string, len(emb))
			covered := true
			for i, t := range emb {
				s, ok := src[t]
				if !ok {
					covered = false
					break
				}
				paths[i] = srcPath[s]
			}
			if !covered {
				continue
			}
			relevant = true
			key := strings.Join(paths, "\x00")
			found, ok := memo[key]
			if !ok {
				for _, r := range roots {
					for _, d := range findPath(r, r.Label, paths[p.Root.Index], true) {
						found = append(found, matchAt(p.Root, d, paths)...)
					}
				}
				memo[key] = found
			}
			for _, mt := range found {
				if k := mt.key(); !seen[k] {
					seen[k] = true
					matches = append(matches, mt)
				}
			}
		}
		if !relevant {
			continue
		}
		sortMatches(matches)
		out = append(out, oResult{Mapping: mi, Prob: m.Prob, Matches: matches})
	}
	return out
}

// oracleAnswers aggregates results by the values bound to the pattern
// node with the given preorder index (the serving layer's presentation
// uses the last node). Answers are ordered by non-increasing probability,
// ties by values.
func oracleAnswers(results []oResult, node int) []oAnswer {
	byKey := map[string]*oAnswer{}
	var keys []string
	for _, r := range results {
		vals := map[string]bool{}
		for _, m := range r.Matches {
			for _, b := range m {
				if b.Node == node {
					vals[b.Text] = true
				}
			}
		}
		list := make([]string, 0, len(vals))
		for v := range vals {
			list = append(list, v)
		}
		sort.Strings(list)
		k := strings.Join(list, "\x00")
		if a, ok := byKey[k]; ok {
			a.Prob += r.Prob
			continue
		}
		byKey[k] = &oAnswer{Values: list, Prob: r.Prob}
		keys = append(keys, k)
	}
	out := make([]oAnswer, 0, len(keys))
	for _, k := range keys {
		out = append(out, *byKey[k])
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		return strings.Join(out[i].Values, "\x00") < strings.Join(out[j].Values, "\x00")
	})
	return out
}

// embeddings lists every assignment of pattern nodes (by preorder index)
// to target schema element IDs that respects labels and axes: a child
// edge needs a schema parent-child pair, a descendant edge a proper
// ancestor-descendant pair, and a root with the child axis the schema
// root. Distinct pattern nodes take distinct elements.
func embeddings(p *twig.Pattern, s *schema.Schema) [][]int {
	nodes := p.Nodes()
	parent := make([]int, len(nodes))
	for _, n := range nodes {
		for _, c := range n.Children {
			parent[c.Index] = n.Index
		}
	}
	var out [][]int
	cur := make([]*schema.Element, len(nodes))
	var rec func(i int)
	rec = func(i int) {
		if i == len(nodes) {
			emb := make([]int, len(nodes))
			for j, e := range cur {
				emb[j] = e.ID
			}
			out = append(out, emb)
			return
		}
		qn := nodes[i]
		var cands []*schema.Element
		switch {
		case i == 0 && qn.Axis == twig.Child:
			cands = []*schema.Element{s.Root}
		case i == 0:
			cands = descendants(s.Root, true)
		case qn.Axis == twig.Child:
			cands = cur[parent[i]].Children
		default:
			cands = descendants(cur[parent[i]], false)
		}
	next:
		for _, e := range cands {
			if e.Name != qn.Label {
				continue
			}
			for j := 0; j < i; j++ {
				if cur[j] == e {
					continue next
				}
			}
			cur[i] = e
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

func descendants(e *schema.Element, self bool) []*schema.Element {
	var out []*schema.Element
	if self {
		out = append(out, e)
	}
	for _, c := range e.Children {
		out = append(out, descendants(c, true)...)
	}
	return out
}

// schemaPaths gives every schema element's dotted label path, by ID.
func schemaPaths(s *schema.Schema) map[int]string {
	out := map[int]string{}
	var walk func(e *schema.Element, prefix string)
	walk = func(e *schema.Element, prefix string) {
		path := e.Name
		if prefix != "" {
			path = prefix + "." + e.Name
		}
		out[e.ID] = path
		for _, c := range e.Children {
			walk(c, path)
		}
	}
	walk(s.Root, "")
	return out
}

// findPath walks the subtree of d, whose dotted label path is dpath, and
// returns the nodes whose path equals want, in document order; d itself
// counts only when self is set. The walk only enters children whose path
// is still a prefix of want.
func findPath(d *xmltree.Node, dpath, want string, self bool) []*xmltree.Node {
	if self && dpath == want {
		return []*xmltree.Node{d}
	}
	if !strings.HasPrefix(want, dpath+".") {
		return nil
	}
	var out []*xmltree.Node
	for _, c := range d.Children {
		out = append(out, findPath(c, dpath+"."+c.Label, want, true)...)
	}
	return out
}

// matchAt returns every match of the rewritten subpattern rooted at qn
// whose qn binding is d: d must satisfy qn's value predicate, and each
// child pattern node must bind a proper descendant of d at the child's
// rewritten path. The child matches combine as a cross product.
func matchAt(qn *twig.Node, d *xmltree.Node, paths []string) []oMatch {
	if qn.HasValue && d.Text != qn.Value {
		return nil
	}
	acc := []oMatch{{{Node: qn.Index, Start: d.Start, Path: paths[qn.Index], Text: d.Text}}}
	for _, c := range qn.Children {
		var sub []oMatch
		for _, cd := range findPath(d, paths[qn.Index], paths[c.Index], false) {
			sub = append(sub, matchAt(c, cd, paths)...)
		}
		if len(sub) == 0 {
			return nil
		}
		var next []oMatch
		for _, a := range acc {
			for _, b := range sub {
				m := append(append(oMatch{}, a...), b...)
				next = append(next, m)
			}
		}
		acc = next
	}
	for _, m := range acc {
		sort.Slice(m, func(i, j int) bool { return m[i].Node < m[j].Node })
	}
	return acc
}

// sortMatches orders matches by their bound start numbers, compared in
// pattern preorder.
func sortMatches(ms []oMatch) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k].Start != b[k].Start {
				return a[k].Start < b[k].Start
			}
		}
		return len(a) < len(b)
	})
}
