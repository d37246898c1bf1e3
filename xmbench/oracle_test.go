package main

import (
	"math"
	"reflect"
	"testing"

	"xmatch/internal/mapping"
	"xmatch/internal/schema"
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

// figure1 is the ContactName ambiguity of the paper's introduction: the
// target's single ContactName may correspond to the buyer's, the
// seller's or the receiver's contact name in the source, and a fourth
// mapping leaves it unmatched.
func figure1(t *testing.T) (*mapping.Set, *xmltree.Document) {
	t.Helper()
	src, err := schema.ParseSpec("S", `Order
  Buyer
    Contact
      Name
  Seller
    Contact
      Name
  Receiver
    Contact
      Name`)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := schema.ParseSpec("T", `PO
  Contact
    ContactName`)
	if err != nil {
		t.Fatal(err)
	}
	id := func(s *schema.Schema, path string) int { return s.ByPath(path).ID }
	pair := func(sp, tp string) mapping.Pair {
		return mapping.Pair{S: id(src, sp), T: id(tgt, tp)}
	}
	maps := []*mapping.Mapping{
		{Score: 3, Pairs: []mapping.Pair{pair("Order", "PO"), pair("Order.Buyer.Contact", "PO.Contact"), pair("Order.Buyer.Contact.Name", "PO.Contact.ContactName")}},
		{Score: 3, Pairs: []mapping.Pair{pair("Order", "PO"), pair("Order.Seller.Contact", "PO.Contact"), pair("Order.Seller.Contact.Name", "PO.Contact.ContactName")}},
		{Score: 2, Pairs: []mapping.Pair{pair("Order", "PO"), pair("Order.Receiver.Contact", "PO.Contact"), pair("Order.Receiver.Contact.Name", "PO.Contact.ContactName")}},
		{Score: 2, Pairs: []mapping.Pair{pair("Order", "PO"), pair("Order.Buyer.Contact", "PO.Contact")}},
	}
	set, err := mapping.NewSet(src, tgt, maps)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.ParseString(`<Order>
  <Buyer><Contact><Name>Cathy</Name></Contact></Buyer>
  <Seller><Contact><Name>Bob</Name></Contact></Seller>
  <Receiver><Contact><Name>Alice</Name></Contact><Contact><Name>Alice</Name></Contact></Receiver>
</Order>`)
	if err != nil {
		t.Fatal(err)
	}
	return set, doc
}

func TestOracleFigure1(t *testing.T) {
	set, doc := figure1(t)
	p := twig.MustParse("PO/Contact/ContactName")
	results := oraclePTQ(p, set, []*xmltree.Node{doc.Root})

	// Worked by hand: mappings 0-2 cover all three pattern nodes, mapping 3
	// has no ContactName and is irrelevant. Each relevant mapping rewrites
	// ContactName to one source Name path; the receiver has two contacts,
	// so mapping 2 has two matches, both bound to "Alice".
	want := []struct {
		mapping int
		prob    float64
		names   []string
	}{
		{0, 0.3, []string{"Cathy"}},
		{1, 0.3, []string{"Bob"}},
		{2, 0.2, []string{"Alice", "Alice"}},
	}
	if len(results) != len(want) {
		t.Fatalf("got %d results, want %d: %+v", len(results), len(want), results)
	}
	for i, w := range want {
		r := results[i]
		if r.Mapping != w.mapping || math.Abs(r.Prob-w.prob) > 1e-12 {
			t.Errorf("result %d: mapping %d prob %v, want mapping %d prob %v", i, r.Mapping, r.Prob, w.mapping, w.prob)
		}
		var names []string
		for _, m := range r.Matches {
			if len(m) != 3 {
				t.Fatalf("result %d: match binds %d nodes, want 3", i, len(m))
			}
			names = append(names, m[2].Text)
		}
		if !reflect.DeepEqual(names, w.names) {
			t.Errorf("result %d: leaf values %v, want %v", i, names, w.names)
		}
	}

	// The paper's aggregated answer {(Cathy, .3), (Bob, .3), (Alice, .2)}:
	// ties by probability order by value.
	answers := oracleAnswers(results, 2)
	wantAns := []oAnswer{{[]string{"Bob"}, 0.3}, {[]string{"Cathy"}, 0.3}, {[]string{"Alice"}, 0.2}}
	if len(answers) != len(wantAns) {
		t.Fatalf("got answers %+v, want %+v", answers, wantAns)
	}
	for i, w := range wantAns {
		if !reflect.DeepEqual(answers[i].Values, w.Values) || math.Abs(answers[i].Prob-w.Prob) > 1e-12 {
			t.Errorf("answer %d: %+v, want %+v", i, answers[i], w)
		}
	}
}

func TestOracleValuePredicateAndSharedAnswers(t *testing.T) {
	set, doc := figure1(t)
	// A value predicate keeps only the seller's match; the two other
	// relevant mappings stay in the answer with no matches, and their
	// empty value sets aggregate into one answer of probability .5.
	p := twig.MustParse(`PO/Contact/ContactName[.="Bob"]`)
	results := oraclePTQ(p, set, []*xmltree.Node{doc.Root})
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for _, r := range results {
		want := 0
		if r.Mapping == 1 {
			want = 1
		}
		if len(r.Matches) != want {
			t.Errorf("mapping %d: %d matches, want %d", r.Mapping, len(r.Matches), want)
		}
	}
	answers := oracleAnswers(results, 2)
	if len(answers) != 2 || len(answers[0].Values) != 0 || math.Abs(answers[0].Prob-0.5) > 1e-12 ||
		!reflect.DeepEqual(answers[1].Values, []string{"Bob"}) || math.Abs(answers[1].Prob-0.3) > 1e-12 {
		t.Errorf("answers %+v, want [{[] .5} {[Bob] .3}]", answers)
	}
}

func TestOracleDescendantAxisAndForest(t *testing.T) {
	set, doc := figure1(t)
	// PO//ContactName embeds through the descendant axis to the same
	// target element; over a forest of two copies of the document (the
	// second numbered after the first, like the shards of a collection)
	// each relevant mapping matches once per copy.
	copyDoc, err := xmltree.ParseString(doc.String())
	if err != nil {
		t.Fatal(err)
	}
	other := xmltree.NewAt(copyDoc.Root, doc.MaxEnd()+xmltree.Gap)
	p := twig.MustParse("PO//ContactName")
	one := oraclePTQ(p, set, []*xmltree.Node{doc.Root})
	two := oraclePTQ(p, set, []*xmltree.Node{doc.Root, other.Root})
	if len(one) != 3 || len(two) != 3 {
		t.Fatalf("got %d and %d results, want 3 and 3", len(one), len(two))
	}
	for i := range one {
		if len(two[i].Matches) != 2*len(one[i].Matches) {
			t.Errorf("mapping %d: %d matches over two roots, want %d", one[i].Mapping, len(two[i].Matches), 2*len(one[i].Matches))
		}
	}
}
