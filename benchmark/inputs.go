package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"sync/atomic"

	"safetsa/internal/codeserver"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
)

//go:embed guests/*.tj guests/*.expected
var guestFS embed.FS

const (
	generatedUnits = 27
	// refMaxSteps bounds a reference run on the bytecode VM; a generated
	// program that does not finish inside it is skipped.
	refMaxSteps = 50_000_000
)

// genShapes are the (methods, statements) sizes generated programs
// cycle through: small, medium and large compilation units.
var genShapes = [][2]int{{3, 2}, {8, 5}, {20, 8}}

// program is one TJ compilation unit with its reference output.
type program struct {
	name   string
	files  map[string]string
	srcLen int
	// want is the output of the independent baseline (front end →
	// stack bytecode → bytecode VM), which shares only the front end
	// with the SafeTSA path under test.
	want string
	// fixed programs do not depend on the seed.
	fixed bool

	// Filled in at set-up by compiling the program on the server under
	// test at O2 / wire v2.
	hash string
	key  codeserver.Key
	wire []byte
	// compileBody is the marshalled /compile request for the unsalted
	// sources, built on first use.
	compileBody []byte

	// steps holds the guest step count first seen per op kind; every
	// later response of that kind must repeat it.
	steps [numKinds]atomic.Int64

	replay *replayState
}

// inputs is everything the benchmark derives from the seed.
type inputs struct {
	seed   int64
	u      []*program // 21 corpus units + 27 generated
	uSmall []*program // u without the two long-running corpus units
	g      []*program // six compute guests
	all    []*program // u + the four guests of benchmark/guests
	// skipped counts generated programs passed over because their
	// reference run did not end OK inside refMaxSteps.
	skipped int
}

// reference runs the independent baseline.
func reference(files map[string]string) (string, error) {
	prog, err := driver.Frontend(files)
	if err != nil {
		return "", err
	}
	bc, err := driver.CompileBytecode(prog)
	if err != nil {
		return "", err
	}
	return driver.RunBytecode(bc, refMaxSteps)
}

func newProgram(name string, files map[string]string, fixed bool) (*program, error) {
	want, err := reference(files)
	if err != nil {
		return nil, fmt.Errorf("reference run of %s: %w", name, err)
	}
	n := 0
	for _, src := range files {
		n += len(src)
	}
	return &program{name: name, files: files, srcLen: n, want: want, fixed: fixed}, nil
}

// buildInputs makes the universe for a seed: the same seed gives the
// same programs, reference outputs included.
func buildInputs(seed int64) (*inputs, error) {
	in := &inputs{seed: seed}
	byName := map[string]*program{}
	units := corpus.Units()
	for _, cu := range units {
		p, err := newProgram(cu.Name, cu.Files, true)
		if err != nil {
			return nil, err
		}
		in.u = append(in.u, p)
		byName[p.name] = p
		if cu.Name != "Linpack" && cu.Name != "BitSieve" {
			in.uSmall = append(in.uSmall, p)
		}
	}
	for idx := 0; len(in.u) < len(units)+generatedUnits; idx++ {
		if idx > 4*generatedUnits {
			return nil, fmt.Errorf("seed %d: too many generated programs fail their reference run", seed)
		}
		shape := genShapes[(len(in.u)-len(units))%len(genShapes)]
		id := fmt.Sprintf("%d_%d", seed, idx)
		p, err := newProgram("Fz"+id, corpus.GenerateFuzz(id, shape[0], shape[1]), false)
		if err != nil {
			in.skipped++
			continue
		}
		in.u = append(in.u, p)
		in.uSmall = append(in.uSmall, p)
	}
	in.all = append(in.all, in.u...)
	for _, name := range guestNames {
		p := byName[name]
		if p == nil {
			src, err := guestFS.ReadFile("guests/" + name + ".tj")
			if err != nil {
				return nil, err
			}
			expected, err := guestFS.ReadFile("guests/" + name + ".expected")
			if err != nil {
				return nil, err
			}
			p, err = newProgram(name, map[string]string{name + ".tj": string(src)}, true)
			if err != nil {
				return nil, err
			}
			if p.want != string(expected) {
				return nil, fmt.Errorf("guest %s: bytecode VM printed %q, guests/%s.expected says %q",
					name, p.want, name, expected)
			}
			in.all = append(in.all, p)
		}
		in.g = append(in.g, p)
	}
	return in, nil
}

// digest identifies the sources of the whole universe.
func (in *inputs) digest() string {
	h := sha256.New()
	for _, p := range in.all {
		fmt.Fprintf(h, "%s %d\n", p.name, p.srcLen)
		for _, src := range p.files {
			h.Write([]byte(src))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// salted returns the program's sources with a trailing comment: the
// same compile work under a content address the store has never seen.
func (p *program) salted(salt string) map[string]string {
	out := make(map[string]string, len(p.files))
	for name, src := range p.files {
		out[name] = src + "\n// " + salt + "\n"
	}
	return out
}
