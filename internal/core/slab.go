package core

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
type Slab[T any] struct {
	free []T // the unused rest of the newest chunk
	next int // size of that chunk
}

// maxChunk bounds what one surviving element can pin and what a unit
// wastes in each slab's last chunk.
const maxChunk = 1 << 7

// Take returns a zeroed vector of n elements, capacity n.
func (s *Slab[T]) Take(n int) []T {
	if n > len(s.free) {
		s.next = min(max(2*s.next, 16), maxChunk)
		s.free = make([]T, max(n, s.next))
	}
	v := s.free[:n:n]
	s.free = s.free[n:]
	return v
}

// One returns a pointer to one zeroed element.
func (s *Slab[T]) One() *T { return &s.Take(1)[0] }

// Keep returns an exactly-sized copy of v; nil for none.
func (s *Slab[T]) Keep(v []T) []T {
	if len(v) == 0 {
		return nil
	}
	out := s.Take(len(v))
	copy(out, v)
	return out
}
