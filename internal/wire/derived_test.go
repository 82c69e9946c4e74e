package wire_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/wire"
)

// derivedTables renders what a consumer derives of m's tables: each
// field's slot; each method's signature, staticness, dispatch slot, host
// operation and body index, which for an imported method are copied from
// the host library; the static initializers' indices and the entry
// method; and, in class-list order, each class's storage sizes, member
// lists and dispatch table.
func derivedTables(m *core.Module) string {
	var b strings.Builder
	for i, fr := range m.Fields {
		fmt.Fprintf(&b, "field %d %s slot %d\n", i, fr.Name, fr.Slot)
	}
	for i, mr := range m.Methods {
		fmt.Fprintf(&b, "method %d %s %v result %d static %v ctor %v vslot %d builtin %d body %d\n",
			i, mr.Sig(m.Types), mr.Params, mr.Result, mr.Static, mr.IsCtor, mr.VSlot, mr.Builtin, mr.FuncIdx)
	}
	fmt.Fprintf(&b, "static initializers %v entry %d\n", m.StaticInit, m.Entry)
	for _, cd := range m.Classes {
		fmt.Fprintf(&b, "class %s slots %d statics %d fields %v methods %v vtable %v\n",
			m.Types.Describe(cd.Type), cd.NumSlots, cd.NumStatics, cd.Fields, cd.Methods, cd.VTable)
	}
	return b.String()
}

// TestDecodedTablesAreTheProducers: the wire carries no layout, member
// list, dispatch table, host operation number, imported method signature,
// body index, entry method or class list, and for every corpus unit and
// benchmark guest at O0 and O2 what the consumer derives of its tables is
// what the producer built, in both wire versions.
func TestDecodedTablesAreTheProducers(t *testing.T) {
	type unit struct {
		name  string
		files map[string]string
	}
	var units []unit
	for _, u := range corpus.Units() {
		units = append(units, unit{u.Name, u.Files})
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "benchmark", "guests", "*.tj"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no benchmark guests (err %v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, unit{"guest/" + filepath.Base(p), map[string]string{filepath.Base(p): string(src)}})
	}
	for _, u := range units {
		o0, err := driver.CompileTSASource(u.files)
		if err != nil {
			t.Fatalf("%s: %v", u.name, err)
		}
		for level, mod := range map[string]*core.Module{"O0": o0, "O2": corpusO2(t, corpus.Unit{Name: u.name, Files: u.files})} {
			want := derivedTables(mod)
			for version, data := range map[string][]byte{"v1": wire.EncodeModule(mod), "v2": wire.EncodeModuleV2(mod, nil)} {
				dec, err := wire.DecodeVerified(data)
				if err != nil {
					t.Fatalf("%s %s %s: %v", u.name, level, version, err)
				}
				if got := derivedTables(dec); got != want {
					t.Errorf("%s %s %s: the consumer derives\n%s\nthe producer computed\n%s", u.name, level, version, got, want)
				}
			}
		}
	}
}

// derivedRefusalSource has an override, a static method and a call to a
// host method, for a unit to be made whose derivation fails.
const derivedRefusalSource = `
class A { int f() { return 1; } static int h() { return 2; } }
class B extends A { boolean g() { return true; } int k() { return 3; } }
class Main {
	static void main() {
		A a = new B();
		B b = new B();
		String s = "abc";
		System.out.println(a.f() + s.length() + A.h() + b.k());
		System.out.println(b.g());
	}
}`

// TestUnderivableTablesAreRefused: a unit whose override changes the
// inherited result type or overrides a static method is refused on every
// door — the in-process verifier, the whole-unit decoders, the cursors
// and the streams, in both wire versions — with the derivation's reason.
// One whose imported method names no host operation of its signature is
// refused by the verifier, and the encoder cannot spell it: an imported
// method is a symbol of the host library's alphabet.
func TestUnderivableTablesAreRefused(t *testing.T) {
	for _, tc := range []struct {
		name          string
		owner, from   string
		to, becauseOf string
	}{
		{"imported method of no host signature", "String", "length", "size", "no body and no host operation of its signature"},
		{"override of another result type", "B", "g", "f", "overrides an inherited method with a different result type"},
		{"override of a static method", "B", "k", "h", "overrides a static method"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mod, err := driver.CompileTSASource(map[string]string{"Main.tj": derivedRefusalSource})
			if err != nil {
				t.Fatal(err)
			}
			renamed := false
			for i := range mod.Methods {
				if mr := &mod.Methods[i]; mr.Name == tc.from && mod.Types.Describe(mr.Owner) == tc.owner {
					mr.Name, renamed = tc.to, true
				}
			}
			if !renamed {
				t.Fatalf("no method %s.%s", tc.owner, tc.from)
			}
			if err := mod.Verify(core.VerifyOptions{}); err == nil || !strings.Contains(err.Error(), tc.becauseOf) {
				t.Errorf("Verify: %v, want a refusal mentioning %q", err, tc.becauseOf)
			}
			if tc.owner == "String" {
				for version, encode := range map[string]func(*core.Module) []byte{
					"v1": wire.EncodeModule,
					"v2": func(m *core.Module) []byte { return wire.EncodeModuleV2(m, nil) },
				} {
					func() {
						defer func() {
							if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "is no method of the host library") {
								t.Errorf("%s: the encoder spelled an imported method the host library lacks (%v)", version, p)
							}
						}()
						encode(mod)
					}()
				}
				return
			}
			doors := []struct {
				name string
				open func([]byte) error
			}{
				{"DecodeModule", func(b []byte) error { _, err := wire.DecodeModule(b); return err }},
				{"DecodeVerified", func(b []byte) error { _, err := wire.DecodeVerified(b); return err }},
				{"OpenVerified", func(b []byte) error { _, err := wire.OpenVerified(b, nil); return err }},
				{"OpenVerified lent", func(b []byte) error { _, err := wire.OpenVerified(b, new(wire.Arena)); return err }},
				{"DecodeVerifiedStream", func(b []byte) error {
					_, err := wire.DecodeVerifiedStream(bytes.NewReader(b), wire.DecodeOptions{})
					return err
				}},
				{"DecodeVerifiedStreamIn", func(b []byte) error {
					_, err := wire.DecodeVerifiedStreamIn(bytes.NewReader(b), wire.DecodeOptions{}, new(wire.Arena))
					return err
				}},
			}
			for version, data := range map[string][]byte{"v1": wire.EncodeModule(mod), "v2": wire.EncodeModuleV2(mod, nil)} {
				for _, d := range doors {
					err := d.open(data)
					if !errors.Is(err, wire.ErrMalformed) || !strings.Contains(err.Error(), tc.becauseOf) {
						t.Errorf("%s %s: %v, want ErrMalformed mentioning %q", version, d.name, err, tc.becauseOf)
					}
				}
			}
		})
	}
}
