package main

import (
	"math/rand"
	"sort"
	"sync"

	"uopsinfo/internal/engine"
	"uopsinfo/internal/uarch"
)

// storeGen is the generation serve-open fills its store with and queries.
const storeGen = uarch.Skylake

// mixEntry is one query class of the serve-open mix: how many of every block
// of 20 queries it takes, and the range of its subset sizes.
type mixEntry struct {
	class  string
	count  int
	lo, hi int
}

// The serve-open mix: single variants (Zipf-popular), subsets, quick
// subsets, and the whole generation (half of them as XML).
var serveMix = []mixEntry{
	{"variant", 12, 1, 1},
	{"subset", 5, 8, 64},
	{"quick", 2, 4, 16},
	{"full", 1, 0, 0},
}

const zipfS = 1.1

// query is one HTTP request of serve-open.
type query struct {
	class  string
	names  []string // the variants the result must hold, sorted
	opts   engine.RunOptions
	format string // the response format: "json" or "xml"
}

// queryStream draws serve-open's queries from its seed. Classes come from a
// shuffled deck holding each class's share of a block of 20, so every
// stretch of 20 queries has the exact mix. Subset sizes come from a shuffled
// deck per class holding each size of its range once, and whole-generation
// queries alternate between JSON and XML, so that the work a run asks for
// differs between seeds in which variants it names, not in how much it is.
// Draws are serialized, so the sequence of queries depends on the seed
// alone.
type queryStream struct {
	mu      sync.Mutex
	rng     *rand.Rand
	stride  int
	all     []string // the generation's variants
	deck    []mixEntry
	sizes   map[string][]int // per class, the sizes not yet drawn
	fulls   int              // whole-generation queries drawn so far
	popular []string         // variants by Zipf rank
	zipf    *rand.Zipf
}

func newQueryStream(seed int64, stride int) *queryStream {
	s := &queryStream{rng: rand.New(rand.NewSource(seed)), stride: stride,
		all: variantNames(uarch.Get(storeGen), stride), sizes: map[string][]int{}}
	s.popular = append([]string(nil), s.all...)
	s.rng.Shuffle(len(s.popular), func(i, j int) { s.popular[i], s.popular[j] = s.popular[j], s.popular[i] })
	s.zipf = rand.NewZipf(s.rng, zipfS, 1, uint64(len(s.popular)-1))
	return s
}

func (s *queryStream) next() query {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.deck) == 0 {
		for _, m := range serveMix {
			for i := 0; i < m.count; i++ {
				s.deck = append(s.deck, m)
			}
		}
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
	}
	m := s.deck[len(s.deck)-1]
	s.deck = s.deck[:len(s.deck)-1]
	switch m.class {
	case "variant":
		name := s.popular[s.zipf.Uint64()]
		return query{class: m.class, names: []string{name}, opts: engine.RunOptions{Only: []string{name}}, format: "json"}
	case "full":
		format := "json"
		if s.fulls%2 == 1 {
			format = "xml"
		}
		s.fulls++
		return query{class: m.class, names: sortedNames(s.all),
			opts: engine.RunOptions{Only: universe(uarch.Get(storeGen), s.stride)}, format: format}
	}
	return s.subset(m.class, m.lo, m.hi, m.class == "quick")
}

// subset draws a query over n in [lo, hi] distinct variants, listed in
// sorted order as uopsd canonicalizes them; n comes from the class's deck of
// sizes.
func (s *queryStream) subset(class string, lo, hi int, quick bool) query {
	if len(s.sizes[class]) == 0 {
		for n := lo; n <= hi; n++ {
			s.sizes[class] = append(s.sizes[class], n)
		}
		s.rng.Shuffle(hi-lo+1, func(i, j int) { s.sizes[class][i], s.sizes[class][j] = s.sizes[class][j], s.sizes[class][i] })
	}
	deck := s.sizes[class]
	n := min(deck[len(deck)-1], len(s.all))
	s.sizes[class] = deck[:len(deck)-1]
	names := make([]string, n)
	for i, j := range s.rng.Perm(len(s.all))[:n] {
		names[i] = s.all[j]
	}
	names = sortedNames(names)
	return query{class: class, names: names, opts: engine.RunOptions{Only: names, SkipLatency: quick}, format: "json"}
}

// quickNames returns the sorted union of the variants of the first n quick
// queries of a stream.
func quickNames(stream *queryStream, n int) []string {
	seen := map[string]bool{}
	for found := 0; found < n; {
		if q := stream.next(); q.class == "quick" {
			for _, name := range q.names {
				seen[name] = true
			}
			found++
		}
	}
	return sortedKeys(seen)
}

// sortedNames returns a sorted copy of names.
func sortedNames(names []string) []string {
	s := append([]string(nil), names...)
	sort.Strings(s)
	return s
}
