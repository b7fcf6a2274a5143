package main

import (
	"fmt"
	"math/rand/v2"

	"sketchengine/internal/core"
)

// alphabet has 32 symbols, so one 64-bit draw yields 12 of them.
const alphabet = "abcdefghijklmnopqrstuvwxyz .,;-\n"

// mutateRate is the share of bytes a mutation replaces. At 1% two
// independent mutations of one base share ~74% of their 8-shingles,
// far above the default LSH threshold (~0.42), so planted neighbours
// are LSH candidates almost surely.
const mutateRate = 0.01

// textInto fills b with random text.
func textInto(r *rand.Rand, b []byte) {
	for i := 0; i < len(b); {
		v := r.Uint64()
		for j := 0; j < 12 && i < len(b); j++ {
			b[i] = alphabet[v&31]
			v >>= 5
			i++
		}
	}
}

func randomText(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	textInto(r, b)
	return b
}

// mutate returns a copy of base with mutateRate of its bytes replaced
// by random symbols.
func mutate(r *rand.Rand, base []byte) []byte {
	out := append([]byte(nil), base...)
	n := int(float64(len(out))*mutateRate) + 1
	for i := 0; i < n; i++ {
		out[r.IntN(len(out))] = alphabet[r.IntN(len(alphabet))]
	}
	return out
}

// record is one generated input record.
type record = core.Record

// corpus is a workload's initial data set: planted clusters of mutated
// copies of hidden bases, plus unrelated filler. The bases themselves
// are never indexed; a hit query is a fresh mutation of one, so its
// ground-truth neighbours are exactly that base's copies.
type corpus struct {
	records []record
	bases   [][]byte
	members [][]string // members[b] names the copies of bases[b]
}

func newCorpus(seed uint64, size, bases, copies int) *corpus {
	r := rand.New(rand.NewPCG(seed, 1))
	c := &corpus{}
	for b := 0; b < bases; b++ {
		base := randomText(r, recBytes)
		c.bases = append(c.bases, base)
		var names []string
		for i := 0; i < copies; i++ {
			name := fmt.Sprintf("c%04d-%02d", b, i)
			names = append(names, name)
			c.records = append(c.records, record{Name: name, Data: mutate(r, base)})
		}
		c.members = append(c.members, names)
	}
	for i := 0; len(c.records) < size; i++ {
		c.records = append(c.records, record{Name: fmt.Sprintf("f%06d", i), Data: randomText(r, recBytes)})
	}
	r.Shuffle(len(c.records), func(i, j int) { c.records[i], c.records[j] = c.records[j], c.records[i] })
	return c
}

// opKind classifies one client operation.
type opKind int

const (
	opHit    opKind = iota // search with planted neighbours
	opMiss                 // search with no neighbours
	opIngest               // ingest request
	numKinds
)

var kindNames = [numKinds]string{"hit", "miss", "ingest"}

func (k opKind) String() string { return kindNames[k] }

// op is one generated client request. For a hit, want names its
// ground-truth neighbours.
type op struct {
	kind    opKind
	query   record
	want    []string
	records []record
}

// deck deals a fixed multiset of values in seeded random order,
// reshuffling once dealt out, so every pass through it has exactly the
// intended composition. Drawing op kinds and batch sizes from decks
// instead of independently keeps a run's mix from drifting with the
// seed.
type deck struct{ cards, left []int }

func newDeck(cards []int) *deck { return &deck{cards: cards} }

// spread returns the values lo..hi once each.
func spread(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

func (d *deck) draw(r *rand.Rand) int {
	if len(d.left) == 0 {
		d.left = append(d.left[:0], d.cards...)
		r.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	v := d.left[len(d.left)-1]
	d.left = d.left[:len(d.left)-1]
	return v
}

// opGen generates one client's operation stream from an op mix.
// Streams are keyed by (seed, stream), so a seed always yields the same
// inputs for a client.
type opGen struct {
	c            *corpus
	r            *rand.Rand
	kinds, batch *deck
	kib          *deck
	prefix       string
	seq          int
}

func newOpGen(mix [numKinds]int, c *corpus, seed, stream uint64, prefix string) *opGen {
	var kinds []int
	for k, n := range mix {
		for range n {
			kinds = append(kinds, k)
		}
	}
	return &opGen{
		c: c, r: rand.New(rand.NewPCG(seed, stream)), prefix: prefix,
		kinds: newDeck(kinds),
		batch: newDeck(spread(1, batchMax)),
		kib:   newDeck(spread(1, ingestKiBMax)),
	}
}

func (g *opGen) next() op {
	switch opKind(g.kinds.draw(g.r)) {
	case opHit:
		return g.hit()
	case opMiss:
		return g.miss()
	default:
		return g.ingest()
	}
}

func (g *opGen) name(kind string) string {
	g.seq++
	return fmt.Sprintf("%s%s%07d", g.prefix, kind, g.seq)
}

func (g *opGen) miss() op {
	return op{kind: opMiss, query: record{Name: g.name("q"), Data: randomText(g.r, recBytes)}}
}

func (g *opGen) hit() op {
	b := g.r.IntN(len(g.c.bases))
	return op{kind: opHit, query: record{Name: g.name("q"), Data: mutate(g.r, g.c.bases[b])}, want: g.c.members[b]}
}

func (g *opGen) ingest() op {
	recs := make([]record, g.batch.draw(g.r))
	for i := range recs {
		recs[i] = record{Name: g.name("r"), Data: randomText(g.r, g.kib.draw(g.r)*1024)}
	}
	return op{kind: opIngest, records: recs}
}
