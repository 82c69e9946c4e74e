package driver

import (
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/lang/sema"
	"safetsa/internal/opt"
	"safetsa/internal/ssabuild"
	"safetsa/internal/wire"
)

// produceAllocs is the allocation count of each producer stage for one
// corpus unit: front end, ssabuild.Build, the O2 module pipeline, and the
// v2 encoder.
type produceAllocs struct{ frontend, build, o2, encode float64 }

// produceAllocCeiling is the committed allocation budget of the producer,
// stage by stage and unit by unit: what this tree measures plus 10 %, or
// the earlier ceiling where that was lower. The
// counts are exact for a given tree (no pool, no global), so exceeding
// one means that stage went back to allocating per token, per instruction
// or per block (DESIGN.md §5, "who owns producer memory"). `go test -v
// -run TestProduceAllocCeiling ./internal/driver` logs the measured rows
// in this form.
var produceAllocCeiling = map[string]produceAllocs{
	"BatchEnvironment":        {910, 3654, 292, 107}, // measured 827, 3321, 265, 100
	"BatchParser":             {556, 955, 124, 85},   // measured 505, 868, 112, 77
	"CompilerMember":          {371, 308, 90, 41},    // measured 337, 280, 82, 38
	"ErrorMessage":            {362, 290, 80, 50},    // measured 329, 263, 73, 45
	"Main":                    {817, 2603, 247, 110}, // measured 742, 2366, 224, 102
	"SourceClass":             {899, 3425, 301, 112}, // measured 817, 3113, 273, 104
	"SourceMember":            {773, 2612, 226, 104}, // measured 702, 2374, 205, 97
	"AmbiguousClass":          {341, 211, 79, 29},    // measured 310, 191, 72, 26
	"AmbiguousMember":         {385, 347, 86, 50},    // measured 350, 315, 79, 45
	"ArrayType":               {385, 311, 95, 47},    // measured 350, 282, 87, 42
	"BinaryAttribute":         {482, 604, 115, 73},   // measured 438, 549, 104, 68
	"BinaryClass":             {648, 1605, 171, 93},  // measured 589, 1459, 155, 87
	"BinaryCode":              {479, 742, 110, 83},   // measured 435, 674, 100, 78
	"Parser":                  {917, 1372, 394, 103}, // measured 833, 1256, 359, 93
	"Scanner":                 {621, 712, 150, 94},   // measured 564, 647, 137, 85
	"BigDecimal":              {558, 618, 177, 60},   // measured 507, 561, 161, 55
	"BigInteger":              {643, 1184, 134, 96},  // measured 584, 1076, 122, 88
	"BitSieve":                {404, 482, 180, 65},   // measured 367, 438, 164, 59
	"MutableBigInteger":       {596, 1085, 156, 103}, // measured 541, 986, 142, 94
	"SignedMutableBigInteger": {525, 1232, 169, 98},  // measured 477, 1120, 154, 89
	"Linpack":                 {526, 1153, 93, 119},  // measured 478, 1048, 85, 109
}

func TestProduceAllocCeiling(t *testing.T) {
	o2 := opt.Options{ModuleLevel: true}
	for _, u := range corpus.Units() {
		var got produceAllocs
		var prog *sema.Program
		got.frontend = testing.AllocsPerRun(3, func() {
			var err error
			if prog, err = Frontend(u.Files); err != nil {
				t.Fatal(err)
			}
		})
		got.build = testing.AllocsPerRun(3, func() {
			if _, err := ssabuild.Build(prog); err != nil {
				t.Fatal(err)
			}
		})
		// The optimizer works in place: each run gets its own build, made
		// outside the measured call.
		builds := make([]*core.Module, 0, 4)
		for len(builds) < cap(builds) {
			mod, err := ssabuild.Build(prog)
			if err != nil {
				t.Fatal(err)
			}
			builds = append(builds, mod)
		}
		next := 0
		got.o2 = testing.AllocsPerRun(len(builds)-1, func() {
			opt.OptimizeWithOptions(builds[next], o2)
			next++
		})
		got.encode = testing.AllocsPerRun(3, func() { wire.EncodeModuleV2(builds[0], nil) })

		t.Logf("%q: {%.0f, %.0f, %.0f, %.0f},", u.Name, got.frontend, got.build, got.o2, got.encode)
		ceiling, ok := produceAllocCeiling[u.Name]
		if !ok {
			t.Errorf("%s: no committed ceiling for %+v", u.Name, got)
			continue
		}
		for _, s := range []struct {
			stage        string
			got, ceiling float64
		}{
			{"frontend", got.frontend, ceiling.frontend},
			{"ssabuild.Build", got.build, ceiling.build},
			{"O2 pipeline", got.o2, ceiling.o2},
			{"EncodeModuleV2", got.encode, ceiling.encode},
		} {
			if s.got > s.ceiling {
				t.Errorf("%s: %.0f allocations per %s, ceiling %.0f", u.Name, s.got, s.stage, s.ceiling)
			}
		}
	}
}
