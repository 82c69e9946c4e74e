package interp_test

import (
	"bytes"
	"strings"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/rt"
)

func compile(t *testing.T, src string) *core.Module {
	t.Helper()
	mod, err := driver.CompileTSASource(map[string]string{"Main.tj": src})
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func runPreparedMain(t *testing.T, mod *core.Module) string {
	t.Helper()
	prep, err := interp.Prepare(mod)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	var out bytes.Buffer
	l, err := interp.LoadTrustedPrepared(mod, prep, &rt.Env{Out: &out, MaxSteps: 10_000_000})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := l.RunMain(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return out.String()
}

// TestPrepareOperandResolution drives the (l, r)→flat-register mapping
// through programs whose operands live at different dominator depths
// and whose phis merge values from different predecessor blocks. Each
// case must (a) prepare without error, (b) print the same bytes on the
// prepared engine as the source dictates, and (c) satisfy the slot
// invariant: register indices are the SSA value ids, bounded by
// NumValues()+1.
func TestPrepareOperandResolution(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{
			// Use in the defining block: dominator depth 0.
			name: "depth0_same_block",
			src: `
class Main {
    static void main() {
        int a = 7;
        int b = a * a;
        System.out.println(b + a);
    }
}`,
			want: "56\n",
		},
		{
			// Operand defined one dominator level above its use.
			name: "depth1_into_branch",
			src: `
class Main {
    static void main() {
        int a = 21;
        if (a > 3) {
            System.out.println(a * 2);
        } else {
            System.out.println(a);
        }
    }
}`,
			want: "42\n",
		},
		{
			// A chain of nested ifs: the innermost use reads operands
			// defined at every level of the dominator tree above it.
			name: "deep_dominator_chain",
			src: `
class Main {
    static void main() {
        int a = 1;
        if (a > 0) {
            int b = a + 1;
            if (b > 1) {
                int c = b + a;
                if (c > 2) {
                    int d = c + b + a;
                    if (d > 5) {
                        System.out.println(a + b + c + d);
                    }
                }
            }
        }
    }
}`,
			want: "12\n",
		},
		{
			// One phi, two predecessor blocks carrying different values.
			name: "phi_from_two_predecessors",
			src: `
class Main {
    static int pick(boolean top) {
        int x;
        if (top) { x = 11; } else { x = 22; }
        return x;
    }
    static void main() {
        System.out.println(pick(true) + pick(false));
    }
}`,
			want: "33\n",
		},
		{
			// Loop-carried phis: entry edge and backedge feed different
			// values, and the parallel-move semantics matter because the
			// swapped pair reads both phis' previous values.
			name: "phi_swap_in_loop",
			src: `
class Main {
    static void main() {
        int a = 0;
        int b = 1;
        for (int i = 0; i < 10; i++) {
            int t = a + b;
            a = b;
            b = t;
        }
        System.out.println(a);
        System.out.println(b);
    }
}`,
			want: "55\n89\n",
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			mod := compile(t, tc.src)
			if got := runPreparedMain(t, mod); got != tc.want {
				t.Errorf("prepared output %q, want %q", got, tc.want)
			}

			prep, err := interp.Prepare(mod)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			for i, pf := range prep.Funcs {
				f, name := mod.Funcs[i], mod.FuncName(mod.Funcs[i])
				if want := int32(f.NumValues() + 1); pf.NumRegs != want {
					t.Errorf("%s: NumRegs = %d, want NumValues()+1 = %d", name, pf.NumRegs, want)
				}
				checkRegisterBounds(t, name, pf)
				checkParamSlots(t, name, f, pf)
				checkPhiMoves(t, name, f, pf)
			}
		})
	}
}

// checkRegisterBounds asserts every register index embedded in the
// prepared code is inside the function's register file.
func checkRegisterBounds(t *testing.T, name string, pf *interp.PFunc) {
	t.Helper()
	ok := func(r int32) bool { return r >= 0 && r < pf.NumRegs }
	for pc := range pf.Code {
		in := &pf.Code[pc]
		if !ok(in.Dst) {
			t.Errorf("%s pc %d: Dst %d out of range", name, pc, in.Dst)
		}
		for _, m := range in.Moves {
			if !ok(m.Dst) || !ok(m.Src) {
				t.Errorf("%s pc %d: move %v out of range", name, pc, m)
			}
		}
		if in.Raise != nil {
			for _, m := range in.Raise.Moves {
				if !ok(m.Dst) || !ok(m.Src) {
					t.Errorf("%s pc %d: raise move %v out of range", name, pc, m)
				}
			}
		}
		for _, a := range in.Args {
			if !ok(a) {
				t.Errorf("%s pc %d: call arg register %d out of range", name, pc, a)
			}
		}
	}
}

// checkParamSlots asserts the slot invariant directly on the parameter
// instructions: the prepared PParam for OpParam v with index k must
// write register int32(v) from args[k].
func checkParamSlots(t *testing.T, name string, f *core.Func, pf *interp.PFunc) {
	t.Helper()
	want := map[int32]int32{} // param index -> SSA value id
	for _, b := range f.Blocks {
		for _, in := range b.Code {
			if in.Op == core.OpParam {
				want[in.Aux] = int32(in.ID)
			}
		}
	}
	for pc := range pf.Code {
		in := &pf.Code[pc]
		if in.Op != interp.PParam {
			continue
		}
		id, ok := want[in.A]
		if !ok {
			t.Errorf("%s pc %d: PParam reads args[%d] with no matching OpParam", name, pc, in.A)
			continue
		}
		if in.Dst != id {
			t.Errorf("%s pc %d: PParam for arg %d writes register %d, want SSA id %d",
				name, pc, in.A, in.Dst, id)
		}
		delete(want, in.A)
	}
	for k, id := range want {
		t.Errorf("%s: no PParam emitted for OpParam v%d (arg %d)", name, id, k)
	}
}

// checkPhiMoves asserts every phi of the function is the destination of
// at least one prepared move, and only of moves (phi registers are
// never written by straight-line instructions).
func checkPhiMoves(t *testing.T, name string, f *core.Func, pf *interp.PFunc) {
	t.Helper()
	phis := map[int32]bool{}
	for _, b := range f.Blocks {
		for _, phi := range b.Phis {
			phis[int32(phi.ID)] = false
		}
	}
	if len(phis) == 0 {
		return
	}
	for pc := range pf.Code {
		in := &pf.Code[pc]
		if _, isPhi := phis[in.Dst]; isPhi && in.Op != interp.PMoves && in.Op != interp.PJump &&
			in.Op != interp.PBranchFalse && in.Dst != 0 {
			t.Errorf("%s pc %d: %v writes phi register %d directly", name, pc, in.Op, in.Dst)
		}
		for _, m := range in.Moves {
			if _, isPhi := phis[m.Dst]; isPhi {
				phis[m.Dst] = true
			}
		}
		if in.Raise != nil {
			for _, m := range in.Raise.Moves {
				if _, isPhi := phis[m.Dst]; isPhi {
					phis[m.Dst] = true
				}
			}
		}
	}
	for id, moved := range phis {
		if !moved {
			t.Errorf("%s: phi register %d is never the destination of a move", name, id)
		}
	}
}

// TestPrepareRejectsCorruptModules mutates decoded modules into shapes
// only a corrupted (post-verifier-bypass) module could have and asserts
// Prepare returns an error instead of panicking. These states are
// unreachable through Load/CheckWire — the verifier rejects them — but
// Prepare is the last line of defense for hand-built modules.
func TestPrepareRejectsCorruptModules(t *testing.T) {
	const src = `
class Main {
    static int f(int n) {
        int s = 0;
        for (int i = 0; i < n; i++) { s = s + i; }
        return s;
    }
    static void main() { System.out.println(f(5)); }
}`

	// Locate a function with a loop (phis) and instructions.
	pickFunc := func(mod *core.Module) *core.Func {
		for _, f := range mod.Funcs {
			for _, b := range f.Blocks {
				if len(b.Phis) > 0 {
					return f
				}
			}
		}
		t.Fatal("no function with phis in test module")
		return nil
	}

	cases := []struct {
		name    string
		corrupt func(mod *core.Module)
		wantSub string
	}{
		{
			name: "operand_value_out_of_range",
			corrupt: func(mod *core.Module) {
				f := pickFunc(mod)
				for _, b := range f.Blocks {
					for _, in := range b.Code {
						if len(in.Args) > 0 {
							in.Args[0] = 9999
							return
						}
					}
				}
			},
			wantSub: "out of range",
		},
		{
			name: "phi_input_out_of_range",
			corrupt: func(mod *core.Module) {
				f := pickFunc(mod)
				for _, b := range f.Blocks {
					if len(b.Phis) > 0 {
						b.Phis[0].Args[0] = 9999
						return
					}
				}
			},
			wantSub: "out of range",
		},
		{
			// Register 0 is where a sequenced move list saves a cycle's
			// value, so no phi may read or write it.
			name: "phi_input_is_scratch_register",
			corrupt: func(mod *core.Module) {
				f := pickFunc(mod)
				for _, b := range f.Blocks {
					if len(b.Phis) > 0 {
						b.Phis[0].Args[len(b.Phis[0].Args)-1] = core.NoValue
						return
					}
				}
			},
			wantSub: "register 0",
		},
		{
			name: "phi_arity_mismatch",
			corrupt: func(mod *core.Module) {
				f := pickFunc(mod)
				for _, b := range f.Blocks {
					if len(b.Phis) > 0 {
						b.Phis[0].Args = b.Phis[0].Args[:1]
						return
					}
				}
			},
			wantSub: "inputs",
		},
		{
			name: "field_index_out_of_range",
			corrupt: func(mod *core.Module) {
				for _, f := range mod.Funcs {
					for _, b := range f.Blocks {
						for _, in := range b.Code {
							if in.Op == core.OpXCall || in.Op == core.OpXDispatch {
								in.Op = core.OpGetField
								in.Field = 1 << 20
								return
							}
						}
					}
				}
				t.Fatal("no call instruction to corrupt")
			},
			wantSub: "field index",
		},
		{
			name: "method_index_out_of_range",
			corrupt: func(mod *core.Module) {
				for _, f := range mod.Funcs {
					for _, b := range f.Blocks {
						for _, in := range b.Code {
							if in.Op == core.OpXCall || in.Op == core.OpXDispatch {
								in.Method = 1 << 20
								return
							}
						}
					}
				}
				t.Fatal("no call instruction to corrupt")
			},
			wantSub: "method index",
		},
		{
			name: "type_id_out_of_range",
			corrupt: func(mod *core.Module) {
				for _, f := range mod.Funcs {
					for _, b := range f.Blocks {
						for _, in := range b.Code {
							if len(in.Args) > 0 {
								in.Op = core.OpNew
								in.TypeArg = 1 << 20
								in.Args = nil
								return
							}
						}
					}
				}
			},
			wantSub: "type id",
		},
		{
			name: "non_executable_opcode",
			corrupt: func(mod *core.Module) {
				f := pickFunc(mod)
				for _, b := range f.Blocks {
					for _, in := range b.Code {
						in.Op = core.OpMem0
						in.Args = nil
						return
					}
				}
			},
			wantSub: "not executable",
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			mod := compile(t, src)
			tc.corrupt(mod)
			prep, err := interp.Prepare(mod)
			if err == nil {
				t.Fatalf("Prepare accepted a corrupt module (got %d funcs)", len(prep.Funcs))
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}
