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
	"BatchEnvironment":        {893, 3651, 292, 107}, // measured 811, 3319, 265, 100
	"BatchParser":             {539, 953, 124, 85},   // measured 490, 866, 112, 77
	"CompilerMember":          {355, 306, 90, 41},    // measured 322, 278, 82, 38
	"ErrorMessage":            {346, 288, 80, 50},    // measured 314, 261, 73, 45
	"Main":                    {799, 2601, 247, 110}, // measured 726, 2364, 224, 102
	"SourceClass":             {883, 3423, 301, 112}, // measured 802, 3111, 273, 104
	"SourceMember":            {755, 2610, 226, 104}, // measured 686, 2372, 205, 97
	"AmbiguousClass":          {325, 208, 79, 29},    // measured 295, 189, 72, 26
	"AmbiguousMember":         {369, 345, 86, 50},    // measured 335, 313, 79, 45
	"ArrayType":               {369, 308, 95, 47},    // measured 335, 280, 87, 42
	"BinaryAttribute":         {467, 602, 115, 73},   // measured 424, 547, 104, 68
	"BinaryClass":             {632, 1603, 171, 93},  // measured 574, 1457, 155, 87
	"BinaryCode":              {464, 740, 110, 83},   // measured 421, 672, 100, 78
	"Parser":                  {894, 1372, 394, 103}, // measured 812, 1250, 359, 93
	"Scanner":                 {604, 710, 150, 94},   // measured 549, 645, 137, 85
	"BigDecimal":              {541, 615, 177, 60},   // measured 491, 559, 161, 55
	"BigInteger":              {625, 1182, 134, 96},  // measured 568, 1074, 122, 88
	"BitSieve":                {387, 480, 180, 65},   // measured 351, 436, 164, 59
	"MutableBigInteger":       {578, 1084, 156, 103}, // measured 525, 985, 142, 94
	"SignedMutableBigInteger": {506, 1230, 169, 98},  // measured 460, 1118, 154, 89
	"Linpack":                 {511, 1150, 93, 119},  // measured 464, 1045, 85, 109
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
