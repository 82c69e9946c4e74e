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
// the earlier ceiling where that was lower (ssabuild.Build's column). The
// counts are exact for a given tree (no pool, no global), so exceeding
// one means that stage went back to allocating per token, per instruction
// or per block (DESIGN.md §5, "who owns producer memory"). `go test -v
// -run TestProduceAllocCeiling ./internal/driver` logs the measured rows
// in this form.
var produceAllocCeiling = map[string]produceAllocs{
	"BatchEnvironment":        {925, 3689, 308, 107}, // measured 841, 3420, 280, 98
	"BatchParser":             {572, 992, 125, 85},   // measured 520, 927, 114, 78
	"CompilerMember":          {387, 346, 90, 41},    // measured 352, 327, 82, 38
	"ErrorMessage":            {378, 325, 80, 53},    // measured 344, 304, 73, 49
	"Main":                    {832, 2638, 259, 110}, // measured 757, 2451, 236, 100
	"SourceClass":             {915, 3449, 321, 112}, // measured 832, 3203, 292, 102
	"SourceMember":            {788, 2648, 238, 104}, // measured 717, 2456, 217, 95
	"AmbiguousClass":          {357, 249, 79, 33},    // measured 325, 235, 72, 30
	"AmbiguousMember":         {401, 387, 86, 50},    // measured 365, 360, 79, 46
	"ArrayType":               {401, 347, 95, 48},    // measured 365, 327, 87, 44
	"BinaryAttribute":         {498, 644, 116, 73},   // measured 453, 600, 106, 67
	"BinaryClass":             {664, 1643, 177, 93},  // measured 604, 1527, 161, 85
	"BinaryCode":              {495, 779, 114, 83},   // measured 450, 724, 104, 76
	"Parser":                  {937, 1372, 394, 104}, // measured 852, 1353, 359, 95
	"Scanner":                 {632, 744, 150, 94},   // measured 575, 703, 137, 86
	"BigDecimal":              {578, 636, 177, 60},   // measured 526, 620, 161, 55
	"BigInteger":              {663, 1207, 134, 96},  // measured 603, 1139, 122, 88
	"BitSieve":                {411, 503, 180, 67},   // measured 374, 490, 164, 61
	"MutableBigInteger":       {620, 1111, 156, 103}, // measured 564, 1054, 142, 94
	"SignedMutableBigInteger": {532, 1267, 169, 99},  // measured 484, 1198, 154, 90
	"Linpack":                 {528, 1193, 93, 119},  // measured 480, 1106, 85, 109
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
