// Package safetsa's root benchmarks regenerate the paper's evaluation:
// one benchmark per table/figure plus the field-sensitive-Mem ablation.
// Their custom metrics are the table cells (bytes, instructions, checks,
// residual loads); timings are the repository benchmark's job
// (go run ./benchmark --trace 1), not theirs. BenchmarkColdLoad is the
// exception: the one-line reproduction of the cold consumer's library
// cost, unit by unit, for whoever next puts that path on a diet,
// BenchmarkColdProduce is the same for the producer, BenchmarkHotRun the
// same for the engine under run_hot_compute's six guests,
// BenchmarkReference the same for the bytecode VM that checks every
// workload's outputs,
// BenchmarkCompileHit the same for a cached POST /compile,
// BenchmarkRestream the same for a resident unit streamed again, and
// BenchmarkColdRun the same for a resident unit run cold.
//
//	go test -bench=. -benchtime=1x
package safetsa

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"safetsa/internal/bench"
	"safetsa/internal/bytecode"
	"safetsa/internal/codeserver"
	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/lang/sema"
	"safetsa/internal/opt"
	"safetsa/internal/rt"
	"safetsa/internal/ssabuild"
	"safetsa/internal/wire"
)

// frontendAll parses and checks the whole corpus once.
func frontendAll(b *testing.B) []*sema.Program {
	b.Helper()
	var progs []*sema.Program
	for _, u := range corpus.Units() {
		p, err := driver.Frontend(u.Files)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, p)
	}
	return progs
}

// BenchmarkFigure5 produces the Figure 5 columns: it compiles the whole
// corpus to both formats and reports the aggregate sizes and instruction
// counts as metrics.
func BenchmarkFigure5(b *testing.B) {
	var bcBytes, bcInstrs, tsaBytes, tsaInstrs, optBytes, optInstrs float64
	for i := 0; i < b.N; i++ {
		bcBytes, bcInstrs, tsaBytes, tsaInstrs, optBytes, optInstrs = 0, 0, 0, 0, 0, 0
		rows, err := bench.MeasureAll()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			bcBytes += float64(r.BCSize)
			bcInstrs += float64(r.BCInstrs)
			tsaBytes += float64(r.TSASize)
			tsaInstrs += float64(r.TSAInstrs)
			optBytes += float64(r.TSAOptSize)
			optInstrs += float64(r.TSAOptInstrs)
		}
	}
	b.ReportMetric(bcBytes, "bytecode-bytes")
	b.ReportMetric(tsaBytes, "safetsa-bytes")
	b.ReportMetric(optBytes, "safetsa-opt-bytes")
	b.ReportMetric(bcInstrs, "bytecode-instrs")
	b.ReportMetric(tsaInstrs, "safetsa-instrs")
	b.ReportMetric(optInstrs, "safetsa-opt-instrs")
}

// BenchmarkColdLoad is what a cold consumer does to a unit before the
// first guest instruction runs: decode, verify, lower, closure-compile.
// Each corpus unit (O2, wire v2 — what safetsad serves) is its own
// sub-benchmark, so allocs/op and B/op read per unit:
//
//	go test -run='^$' -bench=ColdLoad -benchtime=100x .
func BenchmarkColdLoad(b *testing.B) {
	for _, u := range corpus.Units() {
		mod, err := driver.CompileTSASource(u.Files)
		if err == nil {
			_, err = driver.OptimizeModuleOptions(context.Background(), mod, opt.Options{ModuleLevel: true})
		}
		if err != nil {
			b.Fatal(err)
		}
		data := wire.EncodeModuleV2(mod, nil)
		b.Run(u.Name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				dec, err := wire.DecodeModule(data)
				if err != nil {
					b.Fatal(err)
				}
				if err := dec.Verify(core.VerifyOptions{}); err != nil {
					b.Fatal(err)
				}
				prep, err := interp.Prepare(dec)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := interp.Compile(dec, prep); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecode is the wire layer alone under a cold consumer: open a
// resident unit's cursor (wire.OpenVerified) and pull every body through
// it (Wait), so each body is decoded and admitted, into one arena rewound
// after each op as a lent arena is. Each corpus unit (O2, wire v2) is its
// own sub-benchmark, so MB/s and allocs/op read per unit:
//
//	go test -run='^$' -bench=Decode -benchtime=100x .
func BenchmarkDecode(b *testing.B) {
	for _, u := range corpus.Units() {
		mod, err := driver.CompileTSASource(u.Files)
		if err == nil {
			_, err = driver.OptimizeModuleOptions(context.Background(), mod, opt.Options{ModuleLevel: true})
		}
		if err != nil {
			b.Fatal(err)
		}
		data := wire.EncodeModuleV2(mod, nil)
		b.Run(u.Name, func(b *testing.B) {
			var a wire.Arena
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				su, err := wire.OpenVerified(data, &a)
				if err == nil {
					err = su.Wait()
				}
				if err != nil {
					b.Fatal(err)
				}
				a.Rewind()
			}
		})
	}
}

// BenchmarkEncode is BenchmarkDecode's twin on the producer side: one
// wire.Encoder writes each corpus unit (O2, wire v2) and is rewound after
// each op, as a pool worker's compile arena rewinds its encoder, so MB/s
// and allocs/op read per unit:
//
//	go test -run='^$' -bench=Encode -benchtime=100x .
func BenchmarkEncode(b *testing.B) {
	for _, u := range corpus.Units() {
		mod, err := driver.CompileTSASource(u.Files)
		if err == nil {
			_, err = driver.OptimizeModuleOptions(context.Background(), mod, opt.Options{ModuleLevel: true})
		}
		if err != nil {
			b.Fatal(err)
		}
		var e wire.Encoder
		b.Run(u.Name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(e.EncodeV2(mod, nil))))
			e.Rewind()
			for i := 0; i < b.N; i++ {
				e.EncodeV2(mod, nil)
				e.Rewind()
			}
		})
	}
}

// BenchmarkColdProduce is what a store miss costs the producer: front
// end, ssabuild, the O2 module pipeline and the v2 encoder — what
// safetsad's compile path runs, less its two verifier calls. Each corpus
// unit is its own sub-benchmark, so allocs/op and B/op read per unit:
//
//	go test -run='^$' -bench=ColdProduce -benchtime=100x .
func BenchmarkColdProduce(b *testing.B) {
	for _, u := range corpus.Units() {
		srcBytes := 0
		for _, src := range u.Files {
			srcBytes += len(src)
		}
		b.Run(u.Name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(srcBytes))
			for i := 0; i < b.N; i++ {
				prog, err := driver.Frontend(u.Files)
				if err != nil {
					b.Fatal(err)
				}
				mod, err := ssabuild.Build(prog)
				if err != nil {
					b.Fatal(err)
				}
				opt.OptimizeWithOptions(mod, opt.Options{ModuleLevel: true})
				producedBytes = wire.EncodeModuleV2(mod, nil)
			}
		})
	}
}

// producedBytes keeps BenchmarkColdProduce's last encoding reachable.
var producedBytes []byte

// BenchmarkWarmProduce is BenchmarkColdProduce as a compile worker of
// safetsad's pool runs it: every stage in one driver.Arena, the encoding
// copied out and the arena released before the next compile, so B/op and
// allocs/op read what a compile costs when the one before left its memory:
//
//	go test -run='^$' -bench=WarmProduce -benchtime=100x .
func BenchmarkWarmProduce(b *testing.B) {
	for _, u := range corpus.Units() {
		b.Run(u.Name, func(b *testing.B) {
			a := driver.NewArena()
			warmCompile(b, a, u.Files)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				producedBytes = warmCompile(b, a, u.Files)
			}
		})
	}
}

// warmCompile compiles files at O2 in a, as the producer pool does — the
// v2 encoding copied out at its length — and releases a.
func warmCompile(tb testing.TB, a *driver.Arena, files map[string]string) []byte {
	ctx := context.Background()
	prog, err := a.Frontend(ctx, files)
	if err != nil {
		tb.Fatal(err)
	}
	mod, err := a.CompileTSA(ctx, prog)
	if err == nil {
		_, err = a.Optimize(ctx, mod, opt.Options{ModuleLevel: true})
	}
	if err != nil {
		tb.Fatal(err)
	}
	data := a.EncodeV2(mod)
	out := make([]byte, len(data))
	copy(out, data)
	a.Rewind()
	return out
}

// BenchmarkHotRun is the library half of the run_hot_compute gate: the
// workload's six guests — Linpack and BitSieve from the corpus, the four
// of benchmark/guests read from disk — at O2 on the compiled engine, the
// lowering done once outside the timer as a resident unit's is. One
// iteration is one session: static initializers, then main, then the
// release the server's session.finish makes, so the next iteration's heap
// and frames are this one's recycled. Each guest is its own
// sub-benchmark, so ns/op, B/op, allocs/op and steps/µs read per guest:
//
//	go test -run='^$' -bench=HotRun -benchtime=20x .
func BenchmarkHotRun(b *testing.B) {
	for _, g := range computeGuests(b) {
		mod, comp := hotForm(b, g.files)
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			var steps int64
			for i := 0; i < b.N; i++ {
				env := &rt.Env{Out: io.Discard}
				l, err := interp.LoadTrustedCompiled(mod, comp, env)
				if err == nil {
					err = l.RunMain()
				}
				if err != nil {
					b.Fatal(err)
				}
				steps += env.Steps
				l.Release()
			}
			b.ReportMetric(float64(steps)/float64(b.Elapsed().Microseconds()), "steps/µs")
		})
	}
}

// computeGuest is one of run_hot_compute's six guests.
type computeGuest struct {
	name  string
	files map[string]string
}

// computeGuests is run_hot_compute's six guests: Linpack and BitSieve
// from the corpus, the four of benchmark/guests read from disk.
func computeGuests(tb testing.TB) []computeGuest {
	tb.Helper()
	var guests []computeGuest
	for _, u := range corpus.Units() {
		if u.Name == "Linpack" || u.Name == "BitSieve" {
			guests = append(guests, computeGuest{u.Name, u.Files})
		}
	}
	paths, err := filepath.Glob(filepath.Join("benchmark", "guests", "*.tj"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no guests under benchmark/guests (err %v)", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		file := filepath.Base(path)
		guests = append(guests, computeGuest{strings.TrimSuffix(file, ".tj"), map[string]string{file: string(src)}})
	}
	return guests
}

// BenchmarkReference is the library half of every workload's set-up
// cost: the bytecode VM, the baseline whose outputs every workload is
// checked against, running the six compute guests through
// driver.RunBytecode as the benchmark's reference runs do — link, static
// initializers, main. The guest's step count is taken once outside the
// timer (it is deterministic), so steps/µs reads the VM's speed and
// allocs/op its host allocations per run, per guest:
//
//	GOMAXPROCS=1 go test -run='^$' -bench=Reference -benchtime=5x .
func BenchmarkReference(b *testing.B) {
	for _, g := range computeGuests(b) {
		prog, err := driver.Frontend(g.files)
		if err != nil {
			b.Fatal(err)
		}
		bc, err := driver.CompileBytecode(prog)
		if err != nil {
			b.Fatal(err)
		}
		env := rt.NewEnv(io.Discard, rt.Budget{}, nil)
		vm, err := bytecode.NewVM(bc, env)
		if err == nil {
			err = vm.RunMain()
		}
		if err != nil {
			b.Fatal(err)
		}
		steps := env.Steps
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := driver.RunBytecode(bc, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(steps)*float64(b.N)/float64(b.Elapsed().Microseconds()), "steps/µs")
		})
	}
}

// hotForm compiles a guest as run_hot_compute serves it — O2 with the
// module tier — and lowers every function, as a resident unit's form is
// once its guest has run.
func hotForm(tb testing.TB, files map[string]string) (*core.Module, *interp.Compiled) {
	tb.Helper()
	mod, err := driver.CompileTSASource(files)
	if err == nil {
		_, err = driver.OptimizeModuleOptions(context.Background(), mod, opt.Options{ModuleLevel: true})
	}
	if err != nil {
		tb.Fatal(err)
	}
	prep, err := interp.Prepare(mod)
	if err != nil {
		tb.Fatal(err)
	}
	comp, err := interp.Compile(mod, prep)
	if err != nil {
		tb.Fatal(err)
	}
	return mod, comp
}

// BenchmarkCompileHit is the library half of the serve_hot gate's compile
// share: what answering "I already have this" costs. One server holds
// every corpus program's unit resident (O2, wire v2 — what the repository
// benchmark asks for); one iteration is one POST /compile of a program's
// sources through the server's handler, the body as json.Marshal writes
// it, answered cached. Each program is its own sub-benchmark, so ns/op,
// MB/s of request body and allocs/op read per unit:
//
//	go test -run='^$' -bench=CompileHit -benchtime=1000x .
func BenchmarkCompileHit(b *testing.B) {
	srv, err := codeserver.New(codeserver.Config{WireVersion: 2})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	for _, u := range corpus.Units() {
		body, err := json.Marshal(codeserver.CompileRequest{Files: u.Files, ModuleOpt: true})
		if err != nil {
			b.Fatal(err)
		}
		post := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/compile", bytes.NewReader(body)))
			return rec
		}
		if rec := post(); rec.Code != http.StatusOK {
			b.Fatalf("%s: compile answered %d %s", u.Name, rec.Code, rec.Body)
		}
		b.Run(u.Name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			before := srv.Stats().CacheHits
			for i := 0; i < b.N; i++ {
				if rec := post(); rec.Code != http.StatusOK {
					b.Fatalf("compile answered %d %s", rec.Code, rec.Body)
				}
			}
			if hits := srv.Stats().CacheHits - before; hits != uint64(b.N) {
				b.Fatalf("%d of %d requests were store hits", hits, b.N)
			}
		})
	}
}

// BenchmarkRestream is the library half of the consume_stream gate: what
// POST /run-stream costs for a unit the store already holds. One server
// holds every corpus unit resident (O2, wire v2 — what the repository
// benchmark streams); one iteration is one Server.RunUnitStream of a unit's
// bytes, whose guest runs on the bodies it pulls and whose tail the store
// vouches for. Each unit is its own sub-benchmark, so ns/op, B/op and
// allocs/op read per unit:
//
//	go test -run='^$' -bench=Restream -benchtime=200x .
func BenchmarkRestream(b *testing.B) {
	srv, err := codeserver.New(codeserver.Config{MaxSteps: 1 << 22, MaxAllocs: 1 << 24})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, u := range corpus.Units() {
		mod, err := driver.CompileTSASource(u.Files)
		if err == nil {
			_, err = driver.OptimizeModuleOptions(ctx, mod, opt.Options{ModuleLevel: true})
		}
		if err != nil {
			b.Fatal(err)
		}
		data := wire.EncodeModuleV2(mod, nil)
		if _, err := srv.RunUnitStream(ctx, bytes.NewReader(data), codeserver.RunOptions{}); err != nil {
			b.Fatal(err)
		}
		b.Run(u.Name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			before := srv.Stats().ResidentStreams
			for i := 0; i < b.N; i++ {
				if _, err := srv.RunUnitStream(ctx, bytes.NewReader(data), codeserver.RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			if got := srv.Stats().ResidentStreams - before; got != uint64(b.N) {
				b.Fatalf("%d of %d streams were vouched for by the store", got, b.N)
			}
		})
	}
}

// coldRunner returns a server that holds u resident as bytes (O2, wire v2)
// under two keys — its source key and its wire key, the same bytes — with
// a loader cache and a pool of one unit each, and a function that runs
// the unit once through Server.RunUnitOpts under the key the last call did
// not use. The other key's load has evicted the unit from the loader and
// the pool since, so every call is a cold run: the cursor is opened
// again, the bodies main calls are pulled and lowered again, static init
// runs and the pool snapshots it, as in the benchmark's consume_cold.
func coldRunner(tb testing.TB, u corpus.Unit) func() {
	tb.Helper()
	srv, err := codeserver.New(codeserver.Config{MaxSteps: 1 << 22, MaxAllocs: 1 << 24, MaxModules: 1, PoolUnits: 1})
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	unit, _, err := srv.CompileUnit(ctx, u.Files, codeserver.Options{Optimize: true, WireV2: true})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := srv.RunUnitStream(ctx, bytes.NewReader(unit.Wire), codeserver.RunOptions{}); err != nil {
		tb.Fatal(err)
	}
	keys := [2]codeserver.Key{unit.Key, codeserver.KeyForWire(unit.Wire)}
	i := 0
	return func() {
		i++
		res, err := srv.RunUnitOpts(ctx, keys[i%2], codeserver.RunOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		if !res.OK {
			tb.Fatalf("%s: %s", u.Name, res.Error)
		}
	}
}

// BenchmarkColdRun is the library half of the consume_cold gate: what
// POST /run costs for a unit that is resident as bytes but neither loaded
// nor pooled (coldRunner). Each unit is its own sub-benchmark, so ns/op,
// B/op and allocs/op read per unit:
//
//	go test -run='^$' -bench=ColdRun -benchtime=200x .
func BenchmarkColdRun(b *testing.B) {
	for _, u := range corpus.Units() {
		run := coldRunner(b, u)
		run()
		run()
		b.Run(u.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// BenchmarkFigure6 times the producer-side optimizer over the corpus and
// reports the aggregate check/phi eliminations of Figure 6.
func BenchmarkFigure6(b *testing.B) {
	progs := frontendAll(b)
	var phiB, phiA, nullB, nullA, arrB, arrA float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phiB, phiA, nullB, nullA, arrB, arrA = 0, 0, 0, 0, 0, 0
		for _, p := range progs {
			mod, err := driver.CompileTSA(p)
			if err != nil {
				b.Fatal(err)
			}
			st := opt.Optimize(mod)
			phiB += float64(st.PhisBefore)
			phiA += float64(st.PhisAfter)
			nullB += float64(st.NullChecksBefore)
			nullA += float64(st.NullChecksAfter)
			arrB += float64(st.ArrayChecksBefore)
			arrA += float64(st.ArrayChecksAfter)
		}
	}
	b.ReportMetric(phiB, "phi-before")
	b.ReportMetric(phiA, "phi-after")
	b.ReportMetric(nullB, "nullchk-before")
	b.ReportMetric(nullA, "nullchk-after")
	b.ReportMetric(arrB, "arrchk-before")
	b.ReportMetric(arrA, "arrchk-after")
}

// BenchmarkAblationFieldSensitiveMem compares the paper's measured
// configuration (single conservative Mem) against its proposed
// improvement (Mem partitioned by field name / element type, section 8's
// "simple form of field analysis") and reports the residual load counts.
func BenchmarkAblationFieldSensitiveMem(b *testing.B) {
	progs := frontendAll(b)
	var consLoads, partLoads float64
	countLoads := func(m *core.Module) (n int) {
		for _, f := range m.Funcs {
			for _, blk := range f.Blocks {
				blk.Instrs(func(in *core.Instr) {
					if in.Op == core.OpGetField || in.Op == core.OpGetElt {
						n++
					}
				})
			}
		}
		return n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		consLoads, partLoads = 0, 0
		for _, p := range progs {
			m1, err := driver.CompileTSA(p)
			if err != nil {
				b.Fatal(err)
			}
			opt.Optimize(m1)
			consLoads += float64(countLoads(m1))

			m2, err := driver.CompileTSA(p)
			if err != nil {
				b.Fatal(err)
			}
			opt.OptimizeWithOptions(m2, opt.Options{FieldSensitiveMem: true})
			partLoads += float64(countLoads(m2))
		}
	}
	b.ReportMetric(consLoads, "loads-single-mem")
	b.ReportMetric(partLoads, "loads-field-mem")
}
