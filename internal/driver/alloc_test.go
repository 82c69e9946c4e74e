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
// stage by stage and unit by unit: what this tree measures plus 10 %. The
// counts are exact for a given tree (no pool, no global), so exceeding
// one means that stage went back to allocating per token, per instruction
// or per block (DESIGN.md §5, "who owns producer memory"). `go test -v
// -run TestProduceAllocCeiling ./internal/driver` logs the measured rows
// in this form.
var produceAllocCeiling = map[string]produceAllocs{
	"BatchEnvironment":        {9436, 3689, 318, 161}, // measured 8578, 3353, 289, 146
	"BatchParser":             {2154, 992, 135, 97},   // measured 1958, 901, 122, 88
	"CompilerMember":          {699, 346, 96, 49},     // measured 635, 314, 87, 44
	"ErrorMessage":            {619, 325, 86, 54},     // measured 562, 295, 78, 49
	"Main":                    {6598, 2638, 268, 147}, // measured 5998, 2398, 243, 133
	"SourceClass":             {8693, 3449, 330, 153}, // measured 7902, 3135, 300, 139
	"SourceMember":            {6816, 2648, 254, 138}, // measured 6196, 2407, 230, 125
	"AmbiguousClass":          {509, 249, 84, 42},     // measured 462, 226, 76, 38
	"AmbiguousMember":         {752, 387, 92, 53},     // measured 683, 351, 83, 48
	"ArrayType":               {693, 347, 100, 52},    // measured 630, 315, 90, 47
	"BinaryAttribute":         {1367, 644, 122, 82},   // measured 1242, 585, 110, 74
	"BinaryClass":             {3973, 1643, 184, 115}, // measured 3611, 1493, 167, 104
	"BinaryCode":              {1634, 779, 123, 91},   // measured 1485, 708, 111, 82
	"Parser":                  {2196, 1372, 404, 149}, // measured 1996, 1247, 367, 135
	"Scanner":                 {1327, 744, 160, 106},  // measured 1206, 676, 145, 96
	"BigDecimal":              {1215, 636, 184, 77},   // measured 1104, 578, 167, 70
	"BigInteger":              {2576, 1207, 143, 118}, // measured 2341, 1097, 130, 107
	"BitSieve":                {782, 503, 186, 77},    // measured 710, 457, 169, 70
	"MutableBigInteger":       {2187, 1111, 167, 129}, // measured 1988, 1010, 151, 117
	"SignedMutableBigInteger": {2180, 1267, 184, 132}, // measured 1981, 1151, 167, 120
	"Linpack":                 {2656, 1193, 103, 138}, // measured 2414, 1084, 93, 125
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
