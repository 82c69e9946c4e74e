package core

import (
	"math"
	"sync"
	"sync/atomic"
)

// This file is the one recycling discipline (DESIGN.md §9): memory kept
// from one request for the next lives in a Stock, goes back one way —
// Give, which calls the item's Rewind — and is checked by one
// process-wide switch, PoisonRecycled.

// Rewinder is memory a Stock keeps. Rewind takes back everything the item
// handed out since it was taken — while Poisoning, by overwriting it with
// junk and never handing it out again — and reports the bytes it still
// holds. The caller vouches that nothing taken before is used after.
type Rewinder interface{ Rewind() (heldBytes int) }

// Tandem is two kinds of memory one borrower takes and gives back
// together: its Rewind rewinds both and reports what both keep, so one
// stock holds them under one cap.
type Tandem[A, B Rewinder] struct {
	First  A
	Second B
}

// Rewind rewinds both halves.
func (t *Tandem[A, B]) Rewind() int { return t.First.Rewind() + t.Second.Rewind() }

// Stock is a process-wide stock of one kind of recyclable memory. Take
// lends a kept item or a fresh one; Give rewinds it and keeps it only
// while it then holds at most the stock's byte cap, leaving a larger one
// to the collector. It is a sync.Pool: what it keeps idle is never more
// than its borrowers held at once, and a collection drains it.
type Stock[T Rewinder] struct {
	pool  sync.Pool
	cap   int
	fresh func() T
	count *stockCount
}

type stockCount struct{ kept, dropped, poisoned atomic.Uint64 }

var stocks = struct {
	sync.Mutex
	byName map[string]*stockCount
}{byName: map[string]*stockCount{}}

// NewStock returns a stock of items made by fresh, capped at capBytes,
// registered under name: stocks of one name share their counts.
func NewStock[T Rewinder](name string, capBytes int, fresh func() T) *Stock[T] {
	stocks.Lock()
	defer stocks.Unlock()
	c := stocks.byName[name]
	if c == nil {
		c = new(stockCount)
		stocks.byName[name] = c
	}
	return &Stock[T]{cap: capBytes, fresh: fresh, count: c}
}

// Take returns a kept item, or a fresh one when the stock has none.
func (s *Stock[T]) Take() T {
	if x, ok := s.pool.Get().(T); ok {
		return x
	}
	return s.fresh()
}

// Give is the one way back: it rewinds x and keeps it for the next Take,
// unless x then holds more than the stock's cap.
func (s *Stock[T]) Give(x T) {
	if Poisoning() {
		s.count.poisoned.Add(1)
	}
	if x.Rewind() > s.cap {
		s.count.dropped.Add(1)
		return
	}
	s.count.kept.Add(1)
	s.pool.Put(x)
}

// StockCount is what the Gives of one stock name did: items kept, items
// dropped over the cap, and how many of either were given while Poisoning.
type StockCount struct {
	Kept     uint64 `json:"kept"`
	Dropped  uint64 `json:"dropped"`
	Poisoned uint64 `json:"-"`
}

// StockCounts returns the counts of every registered stock name.
func StockCounts() map[string]StockCount {
	stocks.Lock()
	defer stocks.Unlock()
	out := make(map[string]StockCount, len(stocks.byName))
	for name, c := range stocks.byName {
		out[name] = StockCount{c.kept.Load(), c.dropped.Load(), c.poisoned.Load()}
	}
	return out
}

var poisoning atomic.Bool

// PoisonRecycled switches every Rewind to its checking form while on is
// set, so that whatever kept a pointer into recycled memory reads junk
// and diverges from a run without recycling. It is a test hook.
func PoisonRecycled(on bool) { poisoning.Store(on) }

// Poisoning reports whether PoisonRecycled is on.
func Poisoning() bool { return poisoning.Load() }

// Poison overwrites v with its element type's junk.
func Poison[T any](v []T) {
	j := junk[T]()
	for i := range v {
		v[i] = j
	}
}

const junkValue = ValueID(math.MaxInt32)

// Junker is memory of a package core does not know whose junk is not its
// zero value: Junk overwrites the receiver with it.
type Junker interface{ Junk() }

// junk is what poisoned memory of type T holds: an instruction with no
// opcode, a tree node of no kind, a block numbered -1, a value far out of
// range, a body no module declares, true, 0xA5, and a Junker's own junk —
// for lowered code, a record whose handler panics "recycled code
// executed". A reader that kept a pointer into recycled memory goes wrong
// on these where it might not on zeroes. Any other type's junk is its
// zero value, whose readers fail on the nil pointers and empty names they
// find.
func junk[T any]() (j T) {
	switch p := any(&j).(type) {
	case Junker:
		p.Junk()
	case *Instr:
		*p = Instr{ID: junkValue, Op: Op(NumOps), Bind: junkValue, Aux: -1, Field: -1, Method: -1}
	case *CSTNode:
		*p = CSTNode{Kind: CSTKind(NumCSTKinds), Cond: junkValue, Val: junkValue}
	case *Block:
		*p = Block{Index: -1, Depth: -1}
	case *ValueID:
		*p = junkValue
	case *Func:
		*p = Func{Claim: math.MaxInt32} // a method index no table reaches
	case *bool:
		*p = true
	case *byte:
		*p = 0xA5
	}
	return j
}

// MaxUnitArenaBytes is the most a unit's decode arena — or the lowerer of
// one of its bodies — may hold once rewound and still be kept: one
// hostile unit must not tax every later unit that reuses its memory. The
// largest corpus unit leaves 0.6 MB; DESIGN.md §9 argues the figure.
const MaxUnitArenaBytes = 4 << 20
