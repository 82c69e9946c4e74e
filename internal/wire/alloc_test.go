package wire_test

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"
	"unsafe"

	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/opt"
	"safetsa/internal/wire"
)

// corpusO2 compiles one corpus unit the way safetsad serves it: the full
// O2 pipeline, to be sent as wire v2.
func corpusO2(t testing.TB, u corpus.Unit) *core.Module {
	t.Helper()
	mod, err := driver.CompileTSASource(u.Files)
	if err == nil {
		_, err = driver.OptimizeModuleOptions(context.Background(), mod, opt.Options{ModuleLevel: true})
	}
	if err != nil {
		t.Fatalf("%s: %v", u.Name, err)
	}
	return mod
}

// decodeAllocCeiling is the committed allocation budget of one
// wire.DecodeModule call per corpus unit at O2/wire v2, in a plain build
// and in a race-detector build: what this tree measures in each plus
// 10 %. The count is exact for a given tree and build mode (no pool, no
// global), so exceeding it means the decoder went back to allocating per
// node, in whichever mode the test runs. `go test -v -run
// TestDecodeAllocCeiling` logs each unit's count, to re-measure by, once
// plain and once with -race.
var decodeAllocCeiling = map[string][2]float64{ // plain, race
	"BatchEnvironment":        {399, 405}, // measured 362, 368
	"BatchParser":             {219, 226}, // measured 199, 205
	"CompilerMember":          {121, 123}, // measured 111, 114
	"ErrorMessage":            {140, 142}, // measured 128, 132
	"Main":                    {347, 355}, // measured 315, 322
	"SourceClass":             {398, 406}, // measured 361, 369
	"SourceMember":            {338, 345}, // measured 307, 313
	"AmbiguousClass":          {96, 97},   // measured 87, 89
	"AmbiguousMember":         {139, 141}, // measured 127, 131
	"ArrayType":               {137, 139}, // measured 125, 129
	"BinaryAttribute":         {193, 198}, // measured 175, 180
	"BinaryClass":             {272, 279}, // measured 247, 253
	"BinaryCode":              {217, 224}, // measured 197, 203
	"Parser":                  {286, 294}, // measured 264, 276
	"Scanner":                 {227, 230}, // measured 208, 214
	"BigDecimal":              {162, 163}, // measured 148, 151
	"BigInteger":              {234, 236}, // measured 215, 221
	"BitSieve":                {169, 171}, // measured 154, 158
	"MutableBigInteger":       {248, 251}, // measured 227, 233
	"SignedMutableBigInteger": {252, 256}, // measured 231, 237
	"Linpack":                 {262, 267}, // measured 240, 247
}

// TestDecodeAllocCeiling is an exact gate as a plain test: allocations per
// decoded unit, unit by unit, against the ceiling committed for this
// build mode.
func TestDecodeAllocCeiling(t *testing.T) {
	mode := 0
	if raceEnabled {
		mode = 1
	}
	var sum float64
	units := corpus.Units()
	for _, u := range units {
		data := wire.EncodeModuleV2(corpusO2(t, u), nil)
		got := testing.AllocsPerRun(5, func() {
			if _, err := wire.DecodeModule(data); err != nil {
				t.Fatal(err)
			}
		})
		sum += got
		ceilings, ok := decodeAllocCeiling[u.Name]
		t.Logf("%s: %.0f allocations per decode, ceiling %.0f", u.Name, got, ceilings[mode])
		if !ok {
			t.Errorf("%s: %.0f allocations per decode and no committed ceiling", u.Name, got)
		} else if got > ceilings[mode] {
			t.Errorf("%s: %.0f allocations per decode, ceiling %.0f", u.Name, got, ceilings[mode])
		}
	}
	if mean := sum / float64(len(units)); mean > 1500 {
		t.Errorf("corpus mean %.0f allocations per decoded unit, target 1500", mean)
	}
}

// TestManyPlanesDecodeIsLinear: every indexcheck mints its own
// safe-index plane (core.PlaneKey.Bind), so a body can have as many
// planes as it has array values. The register file must find a plane in
// O(1) and a register by binary search: ten times the body is about ten
// times the work, on both sides of the wire, not a hundred.
func TestManyPlanesDecodeIsLinear(t *testing.T) {
	unit := func(arrays int) *core.Module {
		var src strings.Builder
		src.WriteString("class Main {\n static void main() {\n  int s = 0;\n")
		for i := 0; i < arrays; i++ {
			fmt.Fprintf(&src, "  int[] a%d = new int[1]; s += a%d[0];\n", i, i)
		}
		src.WriteString("  System.out.println(s);\n }\n}\n")
		mod, err := driver.CompileTSASource(map[string]string{"Main.tj": src.String()})
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}
	// A scanned plane list makes the ratio ~100 every time.
	codecIsLinear(t, "planes", unit(2_000), unit(20_000))
}

// codecIsLinear fails unless encoding and decoding large, a unit with ten
// times what small has, takes at most 15 times as long. Each time is the
// fastest of three, with the collector run before each and held off
// during it: the claim is about the codec's work, not about what else the
// machine was doing — and a collection the larger unit's heap sets going
// read 15x to 22x on a loaded two-CPU box. Noise on a linear codec only
// ever inflates a single attempt, so it tries eight times.
func codecIsLinear(t *testing.T, what string, small, large *core.Module) {
	t.Helper()
	cost := func(mod *core.Module) (enc, dec time.Duration) {
		enc, dec = time.Hour, time.Hour
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		for i := 0; i < 3; i++ {
			runtime.GC()
			t0 := time.Now()
			data := wire.EncodeModuleV2(mod, nil)
			t1 := time.Now()
			if _, err := wire.DecodeModule(data); err != nil {
				t.Fatal(err)
			}
			enc, dec = min(enc, t1.Sub(t0)), min(dec, time.Since(t1))
		}
		return enc, dec
	}
	var encRatio, decRatio float64
	for attempt := 0; attempt < 8; attempt++ {
		enc1, dec1 := cost(small)
		enc10, dec10 := cost(large)
		encRatio, decRatio = float64(enc10)/float64(enc1), float64(dec10)/float64(dec1)
		t.Logf("%s: encode %v decode %v; 10x: encode %v decode %v", what, enc1, dec1, enc10, dec10)
		if encRatio <= 15 && decRatio <= 15 {
			return
		}
	}
	t.Errorf("10x the %s took %.1fx the time to encode and %.1fx to decode; linear is at most 15x", what, encRatio, decRatio)
}

// stringUnit is a unit whose main prints n string constants, the i-th
// spelled s(i).
func stringUnit(t testing.TB, n int, s func(i int) string) *core.Module {
	t.Helper()
	var src strings.Builder
	src.WriteString("class Main {\n static void main() {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "  System.out.println(\"a%d\");\n", i)
	}
	src.WriteString(" }\n}\n")
	mod, err := driver.CompileTSASource(map[string]string{"Main.tj": src.String()})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	eachString(mod, func(in *core.Instr) { in.Const.S = s(i); i++ })
	if i != n {
		t.Fatalf("%d string constants, want %d", i, n)
	}
	return mod
}

// eachString calls fn on each string constant of mod.
func eachString(mod *core.Module, fn func(in *core.Instr)) {
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Code {
				if in.Op == core.OpConst && in.Const.Kind == core.KString {
					fn(in)
				}
			}
		}
	}
}

// TestStringSaidTwiceIsOneCopy: a unit whose 1 000 string constants are
// one 64 KiB string sends it once, as a literal, and then as references
// into the unit's string table; the decoder hands every constant the
// string the literal made. So the unit decodes with about 3 x 64 KiB more
// allocation than the same unit saying one byte 1 000 times — the
// literal's scratch, doubling up to its length, and its one string —
// where a copy per constant would be 1 000 times the string.
func TestStringSaidTwiceIsOneCopy(t *testing.T) {
	const n, size = 1000, 64 << 10
	big := strings.Repeat("safetsa!", size/8)
	decode := func(s string) uint64 {
		data := wire.EncodeModuleV2(stringUnit(t, n, func(int) string { return s }), nil)
		if len(s) == size && len(data) > 2*size {
			t.Errorf("%d bytes for a unit saying %d bytes %d times: sent more than once", len(data), size, n)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dec, err := wire.DecodeModule(data)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		var first *byte
		eachString(dec, func(in *core.Instr) {
			if first == nil {
				first = unsafe.StringData(in.Const.S)
			}
			if in.Const.S != s || unsafe.StringData(in.Const.S) != first {
				t.Fatalf("a constant decoded as %d bytes of its own, not the first one's %d", len(in.Const.S), len(s))
			}
		})
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := decode("x"), decode(big)
	t.Logf("decode allocates %d B saying 1 byte %d times, %d B saying %d bytes", small, n, large, size)
	if large > small+3*size+size/4 {
		t.Errorf("decoding %d constants of one %d-byte string allocated %d B more than of one byte: more than one copy", n, size, large-small)
	}
}

// TestManyStringsEncodeIsLinear: the encoder finds a string the unit has
// sent through a map, never a scan, so ten times the distinct string
// constants is about ten times the work on both sides of the wire.
func TestManyStringsEncodeIsLinear(t *testing.T) {
	name := func(i int) string { return fmt.Sprintf("constant number %d", i) }
	codecIsLinear(t, "strings", stringUnit(t, 2_000, name), stringUnit(t, 20_000, name))
}
