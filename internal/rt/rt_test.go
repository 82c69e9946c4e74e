package rt

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestJavaDivisionEdges(t *testing.T) {
	if got := IDiv(math.MinInt32, -1); got != math.MinInt32 {
		t.Errorf("MinInt32 / -1 = %d, want MinInt32 (Java wraps)", got)
	}
	if got := IRem(math.MinInt32, -1); got != 0 {
		t.Errorf("MinInt32 %% -1 = %d, want 0", got)
	}
	if got := LDiv(math.MinInt64, -1); got != math.MinInt64 {
		t.Errorf("MinInt64 / -1 = %d", got)
	}
	if got := LRem(math.MinInt64, -1); got != 0 {
		t.Errorf("MinInt64 %% -1 = %d", got)
	}
	if got := IDiv(7, -2); got != -3 {
		t.Errorf("7 / -2 = %d, want -3 (truncation toward zero)", got)
	}
	if got := IRem(-7, 2); got != -1 {
		t.Errorf("-7 %% 2 = %d, want -1", got)
	}
}

// TestDivRemIdentity: Java requires (a/b)*b + a%b == a for every b != 0.
func TestDivRemIdentity(t *testing.T) {
	prop := func(a, b int32) bool {
		if b == 0 {
			return true
		}
		return IDiv(a, b)*b+IRem(a, b) == a
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	propL := func(a, b int64) bool {
		if b == 0 {
			return true
		}
		return LDiv(a, b)*b+LRem(a, b) == a
	}
	if err := quick.Check(propL, nil); err != nil {
		t.Fatal(err)
	}
}

func TestD2ISaturation(t *testing.T) {
	cases := []struct {
		in   float64
		want int32
	}{
		{math.NaN(), 0},
		{math.Inf(1), math.MaxInt32},
		{math.Inf(-1), math.MinInt32},
		{1e100, math.MaxInt32},
		{-1e100, math.MinInt32},
		{3.99, 3},
		{-3.99, -3},
	}
	for _, c := range cases {
		if got := D2I(c.in); got != c.want {
			t.Errorf("D2I(%v) = %d, want %d", c.in, got, c.want)
		}
	}
	if got := D2L(1e300); got != math.MaxInt64 {
		t.Errorf("D2L(1e300) = %d", got)
	}
}

// TestFormatDouble pins FormatDouble to Java's Double.toString contract
// (JLS / java.lang.Double): decimal notation exactly when
// 1e-3 <= |d| < 1e7, otherwise "computerized scientific notation" with a
// mantissa that always carries at least one fractional digit and an
// exponent with no '+' sign or leading zeros. Every expectation below is
// the literal JDK output for that value.
func TestFormatDouble(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0.0"},
		{math.Copysign(0, -1), "-0.0"},
		{1, "1.0"},
		{-2.5, "-2.5"},
		{66, "66.0"},
		{100.0, "100.0"},
		{math.Inf(1), "Infinity"},
		{math.Inf(-1), "-Infinity"},
		{math.NaN(), "NaN"},
		{0.30000000000000004, "0.30000000000000004"},
		{1.0 / 3.0, "0.3333333333333333"},
		{0.1, "0.1"},
		{12345.678, "12345.678"},

		// The 1e7 magnitude boundary: decimal below, scientific at and above.
		{9999999.0, "9999999.0"},
		{1e7, "1.0E7"},
		{-1e7, "-1.0E7"},
		{12345678.0, "1.2345678E7"},

		// The 1e-3 magnitude boundary: decimal at and above, scientific below.
		{0.001, "0.001"},
		{0.0001, "1.0E-4"},
		{0.0009999999999999998, "9.999999999999998E-4"},

		// Exponent spelling: no '+', no padding, mantissa keeps a ".0".
		{2.5e10, "2.5E10"},
		{1e100, "1.0E100"},
		{3.14e-20, "3.14E-20"},
		{1.7976931348623157e308, "1.7976931348623157E308"}, // Double.MAX_VALUE
	}
	for _, c := range cases {
		if got := FormatDouble(c.in); got != c.want {
			t.Errorf("FormatDouble(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestUnpairedSurrogateFidelity is the regression test for the char
// channel: Java strings are unrestricted UTF-16, so printing or
// concatenating a lone surrogate half must preserve the exact code unit
// instead of decaying to U+FFFD the way a naive rune-based
// implementation does. Internally lone halves ride in WTF-8 and must
// round-trip through every UTF-16 string primitive.
func TestUnpairedSurrogateFidelity(t *testing.T) {
	for _, u := range []uint16{0xD800, 0xDBFF, 0xDC00, 0xDFFF} {
		s := StringOf(CharValue(int32(u)), 'c')
		if strings.Contains(s, "�") {
			t.Fatalf("StringOf(%#x) degraded to U+FFFD", u)
		}
		if got := (&Str{S: s}).Len(); got != 1 {
			t.Fatalf("Len(StringOf(%#x)) = %d, want 1", u, got)
		}
		c, ok := (&Str{S: s}).CharAt(0)
		if !ok || uint16(c) != u {
			t.Errorf("CharAt(StringOf(%#x), 0) = %#x, %v; unit not preserved", u, c, ok)
		}
	}

	// A lone high surrogate embedded between ordinary chars keeps its
	// neighbors addressable at the right UTF-16 indices.
	env := &Env{}
	mixed, _ := GetStr(env.Concat(&Str{S: "a"}, env.NewStr(StringOf(CharValue(0xD834), 'c'))))
	ms := &Str{S: mixed + "z"}
	if got := ms.Len(); got != 3 {
		t.Fatalf("Len(mixed) = %d, want 3", got)
	}
	if c, ok := ms.CharAt(1); !ok || uint16(c) != 0xD834 {
		t.Errorf("CharAt(mixed, 1) = %#x, %v", c, ok)
	}
	if c, ok := ms.CharAt(2); !ok || rune(c) != 'z' {
		t.Errorf("CharAt(mixed, 2) = %#x, %v", c, ok)
	}
	// Substrings that cut a pair apart or sit on a lone half keep the
	// unit; one on character boundaries is the text between them.
	for _, c := range []struct {
		s          string
		begin, end int32
		want       string
	}{
		{"a𝄞b", 1, 2, StringOf(CharValue(0xD834), 'c')},
		{"a𝄞b", 2, 4, StringOf(CharValue(0xDD1E), 'c') + "b"},
		{"a𝄞b", 1, 3, "𝄞"},
		{ms.S, 1, 2, StringOf(CharValue(0xD834), 'c')},
		// Two WTF-8 halves of one pair are the same two units as the pair.
		{StringOf(CharValue(0xD834), 'c') + StringOf(CharValue(0xDD1E), 'c'), 0, 2, "𝄞"},
	} {
		if got, ok := (&Str{S: c.s}).Substring(c.begin, c.end); !ok || got != c.want {
			t.Errorf("Substring(%q, %d, %d) = %q, %v; want %q", c.s, c.begin, c.end, got, ok, c.want)
		}
	}
}

// TestStringNativesAllocateNothing: the string natives read a string in
// place. Length, charAt and substring go through one UTF-16 view per
// instance — none at all for ASCII, where they are O(1) — and compareTo,
// indexOf and hashCode stream the code units, so a guest walking a string
// costs the host no copy of it per step.
func TestStringNativesAllocateNothing(t *testing.T) {
	ascii := strings.Repeat("abcdefgh", 1<<17) // 1 MiB
	wide := "a☃b𝄞c" + StringOf(CharValue(0xD834), 'c') + "z"
	for name, text := range map[string]string{"ascii": ascii, "surrogates": wide} {
		s := &Str{S: text}
		n := s.Len()
		got := testing.AllocsPerRun(20, func() {
			for i := int32(0); i < n && i < 64; i++ {
				s.CharAt(n - 1 - i)
			}
			s.Substring(1, 3)
			s.Substring(n-2, n)
			CompareStr(text, text[:len(text)-1])
			IndexOfStr(text, "z")
			StringHash(text)
		})
		if got != 0 {
			t.Errorf("%s: %.0f allocations per pass over the natives", name, got)
		}
	}
	if (&Str{S: ascii}).view() != asciiView {
		t.Error("an ASCII string made a UTF-16 copy of itself")
	}
}

func TestStringHashMatchesJava(t *testing.T) {
	// Values computed with the JDK.
	cases := map[string]int32{
		"":      0,
		"a":     97,
		"ab":    3105, // 31*97 + 98
		"hello": 99162322,
		"Aa":    2112,
		"BB":    2112, // the classic collision with "Aa"
	}
	for s, want := range cases {
		if got := StringHash(s); got != want {
			t.Errorf("StringHash(%q) = %d, want %d", s, got, want)
		}
	}
}

func TestUTF16StringOps(t *testing.T) {
	s := "a☃b𝄞c" // includes a surrogate pair (𝄞 = U+1D11E)
	str := &Str{S: s}
	if got := str.Len(); got != 6 {
		t.Fatalf("Len = %d, want 6 (UTF-16 units)", got)
	}
	if c, ok := str.CharAt(1); !ok || rune(c) != '☃' {
		t.Errorf("CharAt(1) = %c, %v", rune(c), ok)
	}
	if c, ok := str.CharAt(3); !ok || c < 0xD800 {
		t.Errorf("CharAt(3) should be a surrogate half, got %x %v", c, ok)
	}
	if _, ok := str.CharAt(6); ok {
		t.Error("CharAt out of range succeeded")
	}
	sub, ok := str.Substring(1, 3)
	if !ok || sub != "☃b" {
		t.Errorf("Substring(1,3) = %q, %v", sub, ok)
	}
	if _, ok := str.Substring(3, 2); ok {
		t.Error("reversed substring bounds accepted")
	}
	full, ok := str.Substring(0, 6)
	if !ok || full != s {
		t.Errorf("full substring = %q", full)
	}
	if got := IndexOfStr(s, "b𝄞"); got != 2 {
		t.Errorf("IndexOfStr = %d, want 2", got)
	}
	if got := IndexOfStr(s, "zz"); got != -1 {
		t.Errorf("IndexOfStr miss = %d", got)
	}
	if CompareStr("abc", "abd") >= 0 || CompareStr("abc", "abc") != 0 || CompareStr("abcd", "abc") <= 0 {
		t.Error("CompareStr ordering wrong")
	}
	// A proper prefix differs by its length in UTF-16 units.
	if got := CompareStr("a", "a𝄞b"); got != -3 {
		t.Errorf("CompareStr(a, a𝄞b) = %d, want -3", got)
	}
}

func TestStringOfAndRefString(t *testing.T) {
	if got := StringOf(IntValue(-5), 'i'); got != "-5" {
		t.Errorf("int: %q", got)
	}
	if got := StringOf(BoolValue(true), 'z'); got != "true" {
		t.Errorf("bool: %q", got)
	}
	if got := StringOf(CharValue('x'), 'c'); got != "x" {
		t.Errorf("char: %q", got)
	}
	if got := RefString(nil); got != "null" {
		t.Errorf("null: %q", got)
	}
	if got := RefString(&Str{S: "ok"}); got != "ok" {
		t.Errorf("str: %q", got)
	}
	env := &Env{}
	if c, ok := GetStr(env.Concat(&Str{S: "a"}, nil)); !ok || c != "anull" {
		t.Errorf("Concat with null: %q %v", c, ok)
	}
}

func TestEnvObjectsAndExceptions(t *testing.T) {
	var out bytes.Buffer
	env := &Env{Out: &out}
	ci := &ClassInfo{Name: "Thing", NumSlots: 2}
	a := env.NewObject(ci)
	b := env.NewObject(ci)
	if Identity(a) == Identity(b) {
		t.Error("distinct objects share identity")
	}
	if len(a.Fields) != 2 {
		t.Error("field storage not allocated")
	}
	arr := env.NewArray(3, 9)
	if len(arr.Elems) != 3 || arr.TypeID != 9 {
		t.Error("array allocation wrong")
	}

	env.Println("line")
	env.Print("x")
	if out.String() != "line\nx" {
		t.Errorf("output %q", out.String())
	}
}

func TestStepLimit(t *testing.T) {
	env := &Env{MaxSteps: 2}
	env.Step()
	env.Step()
	defer func() {
		if recover() != ErrStepLimit {
			t.Fatal("step limit did not trip")
		}
	}()
	env.Step()
}

func TestSubclassChain(t *testing.T) {
	a := &ClassInfo{Name: "A"}
	b := &ClassInfo{Name: "B", Super: a}
	c := &ClassInfo{Name: "C", Super: b}
	if !c.IsSubclassOf(a) || !c.IsSubclassOf(c) || a.IsSubclassOf(b) {
		t.Error("subclass relation wrong")
	}
}

func TestDRem(t *testing.T) {
	if got := DRem(5.5, 2.0); got != 1.5 {
		t.Errorf("5.5 %% 2.0 = %v", got)
	}
	if got := DRem(-5.5, 2.0); got != -1.5 {
		t.Errorf("-5.5 %% 2.0 = %v (Java keeps the dividend's sign)", got)
	}
	if !math.IsNaN(DRem(1, 0)) {
		t.Error("x % 0.0 must be NaN")
	}
}

// TestValueSize pins the engine's unit of storage: one scalar word plus
// one two-word reference. Every register, field, array element and
// snapshot slot is a Value, so a fourth word is a quarter more memory
// traffic on run_hot_compute.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Errorf("unsafe.Sizeof(rt.Value{}) = %d, want 24", got)
	}
}

// TestIndexMessageMemo: a session's IndexMessage is the package's, for
// every (index, length), whichever pairs share a slot of its memo, and a
// pair it meets again costs the host nothing.
func TestIndexMessageMemo(t *testing.T) {
	e := NewEnv(io.Discard, Budget{}, nil)
	for round := range 2 {
		for _, i := range []int32{0, 1, 4, 8, 9, 10, -1, math.MaxInt32, math.MinInt32} {
			for _, n := range []int{0, 4, 8, math.MaxInt32, math.MaxInt64} {
				if got, want := e.IndexMessage(i, n), IndexMessage(i, n); got != want {
					t.Fatalf("round %d: Env.IndexMessage(%d, %d) = %q, want %q", round, i, n, got, want)
				}
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		for i := int32(8); i < 11; i++ {
			_ = e.IndexMessage(i, 8)
		}
	}); n != 0 {
		t.Errorf("three repeated accesses allocate %v times, want 0", n)
	}
}

// TestExceptionMessages: the implicit exceptions' messages read as the
// fmt formats they replaced did, at the ends of their ranges, and cost
// the host one allocation.
func TestExceptionMessages(t *testing.T) {
	for _, i := range []int32{0, 9, -1, 100, math.MaxInt32, math.MinInt32} {
		for _, n := range []int{0, 7, 256, math.MaxInt32, math.MaxInt64} {
			if got, want := IndexMessage(i, n), fmt.Sprintf("index %d out of bounds for length %d", i, n); got != want {
				t.Errorf("IndexMessage(%d, %d) = %q, want %q", i, n, got, want)
			}
		}
		if got, want := StringIndexMessage(i), fmt.Sprintf("string index %d", i); got != want {
			t.Errorf("StringIndexMessage(%d) = %q, want %q", i, got, want)
		}
		if got, want := NegativeSizeMessage(i), fmt.Sprintf("%d", i); got != want {
			t.Errorf("NegativeSizeMessage(%d) = %q, want %q", i, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = IndexMessage(math.MinInt32, math.MaxInt64) }); n > 1 {
		t.Errorf("IndexMessage allocates %v times, want 1", n)
	}
}
