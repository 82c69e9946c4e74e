package core

import "unsafe"

// Slab hands out a unit's memory from chunks: the instructions, operand
// vectors, blocks and tree nodes of a module that is built in one go (by
// the wire decoder, by ssabuild, by the inliner) cost a chunk per ~128
// elements, not an allocation per element. A chunk is never sized by a
// count its input merely declares: chunks double from 16 elements to
// maxChunk, so capacity follows what has actually been produced, and a
// single vector longer than a chunk is as long as structure already
// built makes it. Every vector is cut to its exact capacity, so appending
// to one later (an optimizer pass may) reallocates it and cannot write
// into its neighbour. The zero Slab is ready to use.
//
// A slab that is rewound (Recycle, then Rewind after each body) hands the
// same chunks out again: one body's memory becomes the next body's, and a
// stream of bodies costs the chunks of its largest, not of its sum.
type Slab[T any] struct {
	free []T // the unused rest of the newest chunk
	next int // size of that chunk

	// A recycling slab keeps every chunk it made, in the order made; at is
	// the one free is cut from.
	recycle bool
	chunks  [][]T
	at      int
}

// maxChunk bounds what one surviving element can pin and what a unit
// wastes in each slab's last chunk.
const maxChunk = 1 << 7

// Take returns a zeroed vector of n elements, capacity n.
func (s *Slab[T]) Take(n int) []T {
	if n > len(s.free) {
		s.refill(n)
	}
	v := s.free[:n:n]
	s.free = s.free[n:]
	return v
}

// refill makes free at least n long: the next kept chunk that is long
// enough, when the slab recycles and has one, else a new chunk.
func (s *Slab[T]) refill(n int) {
	for s.recycle && s.at+1 < len(s.chunks) {
		s.at++
		if c := s.chunks[s.at]; len(c) >= n {
			s.free = c
			return
		}
	}
	s.next = min(max(2*s.next, 16), maxChunk)
	s.free = make([]T, max(n, s.next))
	if s.recycle {
		s.chunks = append(s.chunks, s.free)
		s.at = len(s.chunks) - 1
	}
}

// One returns a pointer to one zeroed element.
func (s *Slab[T]) One() *T { return &s.Take(1)[0] }

// New returns a pointer to a copy of v.
func (s *Slab[T]) New(v T) *T {
	p := s.One()
	*p = v
	return p
}

// Keep returns an exactly-sized copy of v; nil for none.
func (s *Slab[T]) Keep(v []T) []T {
	if len(v) == 0 {
		return nil
	}
	out := s.Take(len(v))
	copy(out, v)
	return out
}

// Recycle makes s keep the chunks it makes from now on, so that Rewind
// can hand them out again. It is for a slab that starts empty.
func (s *Slab[T]) Recycle() { s.recycle = true }

// Rewind takes back everything a recycling slab handed out since it was
// made or last rewound, and reports the bytes of the chunks it keeps: the
// chunks are zeroed where they were used and Take hands them out again,
// from the first. While Poisoning, it overwrites what it handed out with
// its element type's junk instead and forgets the chunks, so whatever
// still points into them reads junk, never a later body. The caller
// vouches that nothing taken before is used after.
func (s *Slab[T]) Rewind() int {
	if len(s.chunks) == 0 {
		return 0
	}
	c := s.chunks[s.at]
	s.chunks[s.at] = c[:len(c)-len(s.free)]
	used := s.chunks[:s.at+1]
	if Poisoning() {
		for _, c := range used {
			Poison(c)
		}
		*s = Slab[T]{next: s.next, recycle: s.recycle}
		return 0
	}
	for _, c := range used {
		clear(c)
	}
	s.chunks[s.at] = c
	s.at, s.free = 0, s.chunks[0]
	n := 0
	for _, c := range s.chunks {
		n += len(c)
	}
	var zero T
	return n * int(unsafe.Sizeof(zero))
}
