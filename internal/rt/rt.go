// Package rt is the shared runtime substrate for the two code consumers
// (the SafeTSA evaluator in package interp and the baseline stack-machine
// interpreter in package bytecode): values, heap objects, arrays,
// strings, the imported host library (Math, System.out, String methods),
// and exception signalling. Sharing the runtime makes the differential
// tests meaningful — both pipelines act on identical machine state.
package rt

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Value is a runtime value: one scalar word and one reference, 24 bytes.
// No field says which scalar the word holds and none needs to: SafeTSA's
// type separation fixes the plane of every operand from its opcode and
// static type, so the instruction reading a Value already knows whether
// I is an integral (int, long, char, boolean), the IEEE-754 bits of a
// double (read through D, written through DoubleValue), or unused
// beside a reference in R (nil R = Java null). Every register, guest
// field, array element and snapshot slot is one Value, so its size is on
// the engine's hot path: TestValueSize pins it, and a change that adds a
// field brings a run_hot_compute number with it.
type Value struct {
	I int64
	R Ref
}

// Ref is a reference payload: *Object, *Array, *Str, or nil for null.
type Ref interface{ refTag() }

// Object is a class instance.
type Object struct {
	Class  *ClassInfo
	Fields []Value
	id     int64
}

// Array is an array instance; TypeID is the consumer's tag for the array
// type (used by instanceof and checked casts).
type Array struct {
	Elems  []Value
	TypeID int32
}

// Str is an immutable string instance. S is its text in WTF-8; u16 is the
// text as the UTF-16 code units Java indexes it by, worked out the first
// time a native asks (view) and kept for the instance's life. A Str
// belongs to one session — every evaluation of a string constant makes a
// fresh one, and a snapshot clone copies S, never the view — so filling
// u16 needs no lock.
type Str struct {
	S   string
	u16 *utf16View
}

func (*Object) refTag() {}
func (*Array) refTag()  {}
func (*Str) refTag()    {}

// IntValue, LongValue, DoubleValue, BoolValue, CharValue, RefValue are
// convenience constructors.
func IntValue(v int32) Value      { return Value{I: int64(v)} }
func LongValue(v int64) Value     { return Value{I: v} }
func DoubleValue(v float64) Value { return Value{I: int64(math.Float64bits(v))} }
func BoolValue(b bool) Value {
	if b {
		return Value{I: 1}
	}
	return Value{}
}
func CharValue(r rune) Value { return Value{I: int64(uint16(r))} }
func RefValue(r Ref) Value   { return Value{R: r} }

// Bool reads a boolean payload.
func (v Value) Bool() bool { return v.I != 0 }

// Int reads an int payload with Java's 32-bit wrapping.
func (v Value) Int() int32 { return int32(v.I) }

// D reads a double payload: the scalar word reinterpreted, bit for bit.
func (v Value) D() float64 { return math.Float64frombits(uint64(v.I)) }

// ClassInfo is the consumer-independent runtime metadata of a class.
type ClassInfo struct {
	Name     string
	Super    *ClassInfo
	NumSlots int
	// VTable holds consumer-specific method identifiers (method-table
	// indices for SafeTSA, method ids for the bytecode loader).
	VTable []int32
	// TypeID tags the class in the consumer's type numbering.
	TypeID int32
	// Statics is the static field storage of the class.
	Statics []Value
}

// IsSubclassOf reports whether c is d or below it.
func (c *ClassInfo) IsSubclassOf(d *ClassInfo) bool {
	for x := c; x != nil; x = x.Super {
		if x == d {
			return true
		}
	}
	return false
}

// Env is the execution environment shared by the interpreters. An Env
// (and everything it allocates, from its own heap) belongs to exactly one
// execution session; it must never be shared between concurrently running
// programs. Outside
// this package and tests an Env comes from NewEnv (or Unbudgeted, for one
// that runs no guest code), never from a literal — budget.go says why.
type Env struct {
	Out io.Writer
	// Steps counts executed instructions; execution aborts with
	// ErrStepLimit once MaxSteps is exceeded (0 = unlimited).
	Steps    int64
	MaxSteps int64
	// Allocs counts abstract allocation units (object field slots, array
	// elements, string bytes, output bytes); execution aborts with
	// ErrAllocLimit once MaxAlloc is exceeded (0 = unlimited). Sandboxed
	// consumers — the fuzzing oracle in particular — set this so that a
	// hostile module cannot exhaust host memory within its step budget
	// (e.g. by repeatedly doubling a string or allocating huge arrays).
	Allocs   int64
	MaxAlloc int64
	// Interrupt, when non-nil, is polled every few thousand steps;
	// once it is closed (e.g. a context.Done channel) execution aborts
	// with ErrInterrupted. This is how servers cancel guest programs.
	// MaxSteps and Interrupt are read when a session starts stepping and
	// at every poll, not on every step (see Step).
	Interrupt <-chan struct{}

	// stepLimit is the last step count Step may reach without looking at
	// anything but the count (see stepSlow); 0 until the first step.
	stepLimit int64
	// slots is the live register slots of every guest activation on the
	// call stack (see Enter).
	slots  int64
	nextID int64
	// heap is where the session's guest objects live (heap.go).
	heap heap
	// indexMsgs holds the messages IndexMessage made last, one per slot.
	indexMsgs [4]indexMsg
}

// indexMsg is IndexMessage(idx, n), s, when s is not "".
type indexMsg struct {
	idx int32
	n   int
	s   string
}

// IndexMessage is the package's IndexMessage(idx, n), made once for as
// long as the session keeps meeting the same (idx, n): a guest that
// catches the same out-of-bounds access in a loop pays the host one
// string for it, not one per throw. Only the host string is kept: every
// exception still gets a guest string of its own. The memo is
// direct-mapped and small, as the few accesses a loop repeats are.
func (e *Env) IndexMessage(idx int32, n int) string {
	m := &e.indexMsgs[(uint(idx)^uint(n))%uint(len(e.indexMsgs))]
	if m.s == "" || m.idx != idx || m.n != n {
		*m = indexMsg{idx, n, IndexMessage(idx, n)}
	}
	return m.s
}

// Charge consumes n units of allocation budget.
func (e *Env) Charge(n int64) {
	e.Allocs += n
	if e.MaxAlloc > 0 && e.Allocs > e.MaxAlloc {
		panic(ErrAllocLimit)
	}
}

// pollMask marks the steps at which Interrupt is polled: every step whose
// count has these bits clear.
const pollMask = 0x0FFF

// Step consumes one step of budget. Every engine charges every step
// here, so it is one compare: the kill test and the interrupt poll live
// in stepSlow, which runs only once the count passes stepLimit.
func (e *Env) Step() {
	e.Steps++
	if e.Steps > e.stepLimit {
		e.stepSlow()
	}
}

// stepSlow is the whole step rule — the step kill, then the interrupt
// poll — for a count past stepLimit, and then moves stepLimit to the
// step before the next one at which either could fire: the budget's
// last step, or the step before the next poll. It derives both from
// Steps alone, so the two ways a count gets past stepLimit other than
// by stepping land here too: a stepLimit of 0 (a fresh Env, a literal
// included) and a count charged directly (a snapshot clone's pre-charge
// of its initializers' drain).
//
//go:noinline
func (e *Env) stepSlow() {
	if e.MaxSteps > 0 && e.Steps > e.MaxSteps {
		panic(ErrStepLimit)
	}
	limit := int64(math.MaxInt64)
	if e.Interrupt != nil {
		if e.Steps&pollMask == 0 {
			select {
			case <-e.Interrupt:
				panic(ErrInterrupted)
			default:
			}
		}
		limit = e.Steps | pollMask
	}
	if e.MaxSteps > 0 {
		limit = min(limit, e.MaxSteps)
	}
	e.stepLimit = limit
}

// NewObject allocates an instance with zeroed fields.
func (e *Env) NewObject(c *ClassInfo) *Object {
	e.Charge(int64(c.NumSlots) + 1)
	e.nextID++
	return e.object(c, c.NumSlots, e.nextID)
}

// NewArray allocates an array of n zero values; n must already have been
// checked non-negative.
func (e *Env) NewArray(n int32, typeID int32) *Array {
	e.Charge(int64(n) + 1)
	return e.array(int(n), typeID)
}

// NewStr allocates a string instance, charging its length against the
// allocation budget.
func (e *Env) NewStr(s string) *Str {
	e.Charge(int64(len(s)) + 1)
	return e.Str(s)
}

// Identity returns the identity hash of a reference.
func Identity(r Ref) int64 {
	switch r := r.(type) {
	case *Object:
		return r.id
	case *Array:
		return int64(len(r.Elems))*31 + int64(r.TypeID)
	case *Str:
		return int64(StringHash(r.S))
	}
	return 0
}

// ---------------------------------------------------------------------
// Exceptions

// ExcClasses bundles the ClassInfos of the imported exception hierarchy a
// consumer registered, so the runtime can construct implicit exceptions.
type ExcClasses struct {
	Throwable, Exception              *ClassInfo
	NPE, Arith, Bounds, Cast, NegSize *ClassInfo
}

// The messages of the implicit exceptions that carry a number, worded
// here once for every engine. Each builds its text in a stack buffer, so
// it costs the host one allocation, the string.

// IndexMessage is the message of the IndexOutOfBoundsException an access
// at index idx of an array of n elements raises.
func IndexMessage(idx int32, n int) string {
	var buf [64]byte
	b := strconv.AppendInt(append(buf[:0], "index "...), int64(idx), 10)
	return string(strconv.AppendInt(append(b, " out of bounds for length "...), int64(n), 10))
}

// StringIndexMessage is the message of the IndexOutOfBoundsException
// String.charAt(i) raises.
func StringIndexMessage(i int32) string {
	var buf [32]byte
	return string(strconv.AppendInt(append(buf[:0], "string index "...), int64(i), 10))
}

// NegativeSizeMessage is the message of the NegativeArraySizeException
// that creating an array of n < 0 elements raises.
func NegativeSizeMessage(n int32) string { return strconv.Itoa(int(n)) }

// ---------------------------------------------------------------------
// Java arithmetic semantics

// IDiv implements Java int division (throws via env on zero divisor).
func IDiv(a, b int32) int32 {
	if a == math.MinInt32 && b == -1 {
		return math.MinInt32
	}
	return a / b
}

// IRem implements Java int remainder.
func IRem(a, b int32) int32 {
	if a == math.MinInt32 && b == -1 {
		return 0
	}
	return a % b
}

// LDiv implements Java long division.
func LDiv(a, b int64) int64 {
	if a == math.MinInt64 && b == -1 {
		return math.MinInt64
	}
	return a / b
}

// LRem implements Java long remainder.
func LRem(a, b int64) int64 {
	if a == math.MinInt64 && b == -1 {
		return 0
	}
	return a % b
}

// D2I converts double to int with Java's saturating semantics.
func D2I(d float64) int32 {
	switch {
	case math.IsNaN(d):
		return 0
	case d >= math.MaxInt32:
		return math.MaxInt32
	case d <= math.MinInt32:
		return math.MinInt32
	}
	return int32(d)
}

// D2L converts double to long with Java's saturating semantics.
func D2L(d float64) int64 {
	switch {
	case math.IsNaN(d):
		return 0
	case d >= math.MaxInt64:
		return math.MaxInt64
	case d <= math.MinInt64:
		return math.MinInt64
	}
	return int64(d)
}

// DRem implements Java's % on doubles (IEEE remainder semantics of the
// JLS, which is math.Mod, not math.Remainder).
func DRem(a, b float64) float64 { return math.Mod(a, b) }

// ---------------------------------------------------------------------
// String operations of the imported String type

// FormatDouble renders a double exactly like Java's Double.toString
// (JLS / java.lang.Double, with the JDK 19+ shortest-round-trip digit
// selection, which is also what strconv produces): plain decimal
// notation when 1e-3 <= |d| < 1e7, computerized scientific notation
// ("1.0E7", "1.0E-4" — no '+', no zero-padded exponent) otherwise, and
// always at least one digit after the decimal point.
func FormatDouble(d float64) string {
	switch {
	case math.IsNaN(d):
		return "NaN"
	case math.IsInf(d, 1):
		return "Infinity"
	case math.IsInf(d, -1):
		return "-Infinity"
	case d == 0:
		if math.Signbit(d) {
			return "-0.0"
		}
		return "0.0"
	}
	if abs := math.Abs(d); abs >= 1e-3 && abs < 1e7 {
		s := strconv.FormatFloat(d, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	}
	s := strconv.FormatFloat(d, 'E', -1, 64)
	mant, exp, _ := strings.Cut(s, "E")
	if !strings.Contains(mant, ".") {
		mant += ".0"
	}
	neg := strings.HasPrefix(exp, "-")
	exp = strings.TrimLeft(strings.TrimPrefix(exp, "+"), "-0")
	if neg {
		exp = "-" + exp
	}
	return mant + "E" + exp
}

// StringOf renders any value in Java string-conversion style; kind is a
// one-letter tag (i, l, d, z, c, r).
func StringOf(v Value, kind byte) string {
	switch kind {
	case 'i':
		return strconv.FormatInt(int64(int32(v.I)), 10)
	case 'l':
		return strconv.FormatInt(v.I, 10)
	case 'd':
		return FormatDouble(v.D())
	case 'z':
		if v.I != 0 {
			return "true"
		}
		return "false"
	case 'c':
		// Through the UTF-16-aware path: an unpaired surrogate code unit
		// must survive (as WTF-8) rather than collapse to U+FFFD, so that
		// both pipelines print and re-consume what Java's string model
		// holds.
		return stringFromUnits([]uint16{uint16(v.I)})
	case 'r':
		return RefString(v.R)
	}
	panic("rt: bad string conversion tag")
}

// RefString renders a reference as Java string conversion would.
func RefString(r Ref) string {
	switch r := r.(type) {
	case nil:
		return "null"
	case *Str:
		return r.S
	case *Object:
		return fmt.Sprintf("%s@%x", r.Class.Name, r.id)
	case *Array:
		return fmt.Sprintf("array@%x", Identity(r))
	}
	return "?"
}

// StringHash implements Java's String.hashCode.
func StringHash(s string) int32 {
	var h int32
	for r := (unitReader{s: s}); ; {
		u, ok := r.next()
		if !ok {
			return h
		}
		h = 31*h + int32(u)
	}
}

// unitReader reads the runtime string encoding (WTF-8: UTF-8 plus
// three-byte sequences for unpaired surrogate code units) as the UTF-16
// code-unit sequence of the equivalent Java string, one unit at a time and
// without copying it.
type unitReader struct {
	s string
	i int
	// low is the second half of a surrogate pair whose first half next
	// returned, 0 when none is pending (no low surrogate is 0).
	low uint16
}

// next returns the next code unit, or false at the end of the string.
func (r *unitReader) next() (uint16, bool) {
	if u := r.low; u != 0 {
		r.low = 0
		return u, true
	}
	if r.i >= len(r.s) {
		return 0, false
	}
	if b := r.s[r.i]; b < utf8.RuneSelf {
		r.i++
		return uint16(b), true
	}
	if u, ok := decodeSurrogateWTF8(r.s[r.i:]); ok {
		r.i += 3
		return u, true
	}
	c, size := utf8.DecodeRuneInString(r.s[r.i:])
	r.i += size
	if c > 0xFFFF {
		c -= 0x10000
		r.low = uint16(0xDC00 + c&0x3FF)
		return uint16(0xD800 + c>>10), true
	}
	return uint16(c), true
}

// rest counts the code units left to read.
func (r *unitReader) rest() int32 {
	n := int32(0)
	for _, ok := r.next(); ok; _, ok = r.next() {
		n++
	}
	return n
}

// utf16Units converts the runtime string encoding to the UTF-16 code-unit
// sequence of the equivalent Java string.
func utf16Units(s string) []uint16 {
	out := make([]uint16, 0, len(s))
	for r := (unitReader{s: s}); ; {
		u, ok := r.next()
		if !ok {
			return out
		}
		out = append(out, u)
	}
}

// decodeSurrogateWTF8 reads the WTF-8 encoding of one surrogate code
// unit (0xED 0xA0..0xBF 0x80..0xBF ⇒ U+D800..U+DFFF), which strict
// UTF-8 decoders reject.
func decodeSurrogateWTF8(s string) (uint16, bool) {
	if len(s) >= 3 && s[0] == 0xED &&
		s[1] >= 0xA0 && s[1] <= 0xBF && s[2] >= 0x80 && s[2] <= 0xBF {
		return 0xD000 | uint16(s[1]&0x3F)<<6 | uint16(s[2]&0x3F), true
	}
	return 0, false
}

// appendUnitWTF8 appends one UTF-16 code unit; surrogates (necessarily
// unpaired here) are written in WTF-8 so they round-trip through
// utf16Units instead of degrading to U+FFFD.
func appendUnitWTF8(sb *strings.Builder, u uint16) {
	if u >= 0xD800 && u <= 0xDFFF {
		sb.WriteByte(0xE0 | byte(u>>12))
		sb.WriteByte(0x80 | byte(u>>6)&0x3F)
		sb.WriteByte(0x80 | byte(u)&0x3F)
		return
	}
	sb.WriteRune(rune(u))
}

// GetStr extracts a Go string from a string reference; ok is false on
// null or non-string references.
func GetStr(r Ref) (string, bool) {
	s, ok := r.(*Str)
	if !ok {
		return "", false
	}
	return s.S, true
}

// Concat implements the String.concat primitive: null renders "null".
// It is an Env method so the result is charged against the allocation
// budget — unbounded string growth (s = s + s) is the cheapest way for a
// hostile module to exhaust host memory.
func (e *Env) Concat(a, b Ref) Ref {
	return e.NewStr(RefString(a) + RefString(b))
}

// Println/Print write to the environment output. Every byte is charged
// to the allocation budget before it is written: the host holds a
// session's output in memory until the guest ends, exactly as it holds a
// guest string, so a session's output is bounded by MaxAlloc bytes and a
// flood dies as ErrAllocLimit with what was printed so far intact.
func (e *Env) Println(s string) {
	e.Charge(int64(len(s)) + 1)
	fmt.Fprintln(e.Out, s)
}

func (e *Env) Print(s string) {
	e.Charge(int64(len(s)))
	fmt.Fprint(e.Out, s)
}

// MathOp evaluates the named double intrinsic.
func MathOp(name string, a, b float64) float64 {
	switch name {
	case "sqrt":
		return math.Sqrt(a)
	case "abs":
		return math.Abs(a)
	case "min":
		return math.Min(a, b)
	case "max":
		return math.Max(a, b)
	case "pow":
		return math.Pow(a, b)
	case "floor":
		return math.Floor(a)
	case "ceil":
		return math.Ceil(a)
	case "log":
		return math.Log(a)
	case "exp":
		return math.Exp(a)
	case "sin":
		return math.Sin(a)
	case "cos":
		return math.Cos(a)
	}
	panic("rt: unknown math intrinsic " + name)
}

// utf16View is a string's text as UTF-16 code units. ASCII text needs no
// copy — unit i is byte i — and shares the one asciiView.
type utf16View struct {
	units []uint16 // nil for ASCII text
	// offs[i] is the byte offset in S of unit i, -1 for the second half of
	// a surrogate pair, and offs[len(units)] is len(S). It is nil when S
	// is not the canonical spelling of units (invalid UTF-8, or a pair
	// written as two WTF-8 halves), which is the only case where a
	// substring is not a slice of S.
	offs []int32
}

var asciiView = &utf16View{}

// emptyStr stands in for a string argument that is not a string; its view
// is set, so sessions sharing it only ever read it.
var emptyStr = &Str{u16: asciiView}

// AsStr is the string a native's argument holds, or the empty string for
// null or a reference that is not a string.
func AsStr(r Ref) *Str {
	if s, ok := r.(*Str); ok {
		return s
	}
	return emptyStr
}

// ConstStr is the template of a string constant: Env.Fresh makes each
// evaluation's instance from it. It knows whether s is ASCII, so a guest
// that indexes a constant pays for no scan per evaluation.
func ConstStr(s string) *Str {
	c := &Str{S: s}
	if isASCII(s) {
		c.u16 = asciiView
	}
	return c
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// view is s's UTF-16 view, worked out on first use: a scan for ASCII
// text, and for any other the one copy this instance ever makes.
func (s *Str) view() *utf16View {
	if s.u16 != nil {
		return s.u16
	}
	if isASCII(s.S) {
		s.u16 = asciiView
		return s.u16
	}
	v := &utf16View{units: utf16Units(s.S)}
	if stringFromUnits(v.units) == s.S {
		v.offs = make([]int32, 0, len(v.units)+1)
		for r := (unitReader{s: s.S}); ; {
			at := int32(r.i)
			if r.low != 0 {
				at = -1
			}
			v.offs = append(v.offs, at)
			if _, ok := r.next(); !ok {
				break
			}
		}
	}
	s.u16 = v
	return v
}

// Len is Java's String.length: the number of UTF-16 code units.
func (s *Str) Len() int32 {
	if v := s.view(); v.units != nil {
		return int32(len(v.units))
	}
	return int32(len(s.S))
}

// CharAt returns the UTF-16 unit at index i.
func (s *Str) CharAt(i int32) (uint16, bool) {
	if i < 0 || i >= s.Len() {
		return 0, false
	}
	if v := s.u16; v.units != nil {
		return v.units[i], true
	}
	return uint16(s.S[i]), true
}

// Substring implements String.substring with Java bounds semantics;
// returns ok=false when the bounds are invalid (caller throws). It is a
// slice of S unless a bound splits a surrogate pair or S is not canonical
// WTF-8.
func (s *Str) Substring(begin, end int32) (string, bool) {
	if begin < 0 || end > s.Len() || begin > end {
		return "", false
	}
	v := s.u16
	if v.units == nil {
		return s.S[begin:end], true
	}
	if v.offs != nil && v.offs[begin] >= 0 && v.offs[end] >= 0 {
		return s.S[v.offs[begin]:v.offs[end]], true
	}
	return stringFromUnits(v.units[begin:end]), true
}

// IndexOfStr is Java's String.indexOf(String).
func IndexOfStr(s, sub string) int32 {
	i := strings.Index(s, sub)
	if i < 0 {
		return -1
	}
	return (&unitReader{s: s[:i]}).rest()
}

// CompareStr is Java's String.compareTo.
func CompareStr(a, b string) int32 {
	ra, rb := unitReader{s: a}, unitReader{s: b}
	for {
		ua, oka := ra.next()
		ub, okb := rb.next()
		switch {
		case !oka && !okb:
			return 0
		case !oka: // a is a proper prefix of b: the difference in length
			return -1 - rb.rest()
		case !okb:
			return 1 + ra.rest()
		case ua != ub:
			return int32(ua) - int32(ub)
		}
	}
}

func stringFromUnits(u []uint16) string {
	var sb strings.Builder
	for i := 0; i < len(u); i++ {
		if r := rune(u[i]); r >= 0xD800 && r <= 0xDBFF && i+1 < len(u) &&
			u[i+1] >= 0xDC00 && u[i+1] <= 0xDFFF {
			sb.WriteRune(0x10000 + (r-0xD800)<<10 + (rune(u[i+1]) - 0xDC00))
			i++
			continue
		}
		appendUnitWTF8(&sb, u[i])
	}
	return sb.String()
}
