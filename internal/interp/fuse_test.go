package interp_test

import (
	"bytes"
	"fmt"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/rt"
)

// fuseSweepSrc holds every pair the compiled engine fuses: checked field
// and array reads, each int and reference compare as a loop test, nested
// loops, a phi swap and a phi 3-cycle on one back edge, an if/else join
// whose jump carries moves, params and constants back to back, and a
// raise in the first half of each check pair, caught in the same
// function (guarded's second read of a is an indexcheck→getelt pair at
// O2, where its nullcheck is gone). The static initializer gives a
// snapshot clone a drain to pre-charge.
const fuseSweepSrc = `
class Node {
    int v;
    Node next;
    Node(int v, Node next) { this.v = v; this.next = next; }
}
class Fuse {
    static int[] data = Fuse.build(5);

    static int[] build(int n) {
        int[] t = new int[n];
        for (int i = 0; i < n; i++) { t[i] = i * 3 + 1; }
        return t;
    }

    static int pick(int x, int y) {
        int k = 7;
        int m = 2;
        return x * k + y * m;
    }

    static int walk(Node n) {
        int s = 0;
        while (n != null) { s = s + n.v; n = n.next; }
        return s;
    }

    static int same(Node a) {
        int k = 0;
        Node m = a;
        while (m == a) { k = k + 1; m = m.next; }
        return k;
    }

    static int compares(int[] a) {
        int s = 0;
        for (int i = 0; i < a.length; i++) { s = s + a[i]; }
        int j = a.length - 1;
        while (j >= 0) { s = s - a[j]; j = j - 1; }
        int k = 0;
        while (k <= 3) { s = s + k; k = k + 1; }
        int m = 9;
        while (m > 6) { m = m - 1; }
        int e = 0;
        while (e == 0) { e = e + 1; }
        int q = 0;
        while (q != 3) { q = q + 1; }
        return s + m + e + q;
    }

    static int rotate(int n) {
        int a = 1;
        int b = 2;
        int c = 3;
        int x = 10;
        int y = 20;
        int s = 0;
        for (int i = 0; i < n; i++) {
            for (int j = 0; j < 2; j++) { s = s + a * j; }
            if (i % 2 == 0) { s = s + x; } else { s = s - y; }
            int t = a;
            a = b;
            b = c;
            c = t;
            int u = x;
            x = y;
            y = u;
        }
        return a * 1000 + b * 100 + c * 10 + x - y + s;
    }

    static int guarded(Node n, int[] a, int i) {
        int s = 0;
        try { s = s + n.v; } catch (Exception e) { s = s - 1; }
        try { s = s + a[0] + a[i]; } catch (Exception e) { s = s - 2; }
        return s;
    }

    static void main() {
        Node h = null;
        for (int i = 0; i < 4; i++) { h = new Node(i, h); }
        int acc = 0;
        for (int r = 0; r < 2; r++) {
            acc = acc + walk(h) + same(h) + compares(data) + rotate(r + 2) + pick(r, acc);
            acc = acc + guarded(h, data, r) + guarded(null, data, r) + guarded(h, null, r) + guarded(h, data, 9 + r);
        }
        System.out.println(acc);
    }
}
`

// sweepSession runs mod's main once: on the reference walker when comp
// is nil, else on comp, from a fresh session or, with snap set, from a
// clone of it.
func sweepSession(t *testing.T, mod *core.Module, comp *interp.Compiled, snap *interp.Snapshot, env *rt.Env) sessionResult {
	t.Helper()
	var out bytes.Buffer
	env.Out = &out
	var l *interp.Loader
	var err error
	switch {
	case snap != nil:
		l, err = snap.NewSession(env)
		if err == nil {
			err = l.RunMain()
		}
	case comp != nil:
		l, err = interp.LoadTrustedCompiled(mod, comp, env)
		if err == nil {
			err = l.RunMain()
		}
	default:
		l, err = interp.LoadTrusted(mod, env)
		if err == nil {
			err = l.RunMain()
		}
	}
	res := sessionResult{out: out.String(), err: err, steps: env.Steps, allocs: env.Allocs}
	if l != nil {
		res.heap = l.HeapChecksum()
	}
	return res
}

// snapshotOf runs mod's static initializers on comp and freezes them.
func snapshotOf(t *testing.T, mod *core.Module, comp *interp.Compiled) *interp.Snapshot {
	t.Helper()
	var out bytes.Buffer
	l, err := interp.LoadTrustedDeferred(mod, nil, comp, &rt.Env{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.RunStaticInit(); err != nil {
		t.Fatal(err)
	}
	snap, err := l.Snapshot(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// fusedPairs names every pair fuse builds, as interp.FusedPairs spells it.
var fusedPairs = []string{
	"nullcheck→getfield", "nullcheck→indexcheck", "indexcheck→getelt", "jump→loopstep",
	"int.lt→branchfalse", "int.le→branchfalse", "int.gt→branchfalse", "int.ge→branchfalse",
	"int.eq→branchfalse", "int.ne→branchfalse", "ref.eq→branchfalse", "ref.ne→branchfalse",
	"const→const", "param→param", "param→const",
}

// TestFusedKillPoints is the kill-point sweep over every fused shape: the
// program above, unoptimized and at O2 (where a second read of an array
// has no nullcheck before its indexcheck), dies of its step budget at
// every step it takes, of a closed interrupt at every step it takes, and
// of its step budget at every step after its initializers on a snapshot
// clone — on the reference walker, and on the compiled engine over an
// eager form and over a form each session fills as it calls. Error,
// steps, allocations, output and heap checksum must be the walker's at
// every point.
func TestFusedKillPoints(t *testing.T) {
	seen := map[string]int{}
	for _, optimize := range []bool{false, true} {
		name := "unopt"
		if optimize {
			name = "opt"
		}
		t.Run(name, func(t *testing.T) {
			mod := compile(t, fuseSweepSrc)
			if optimize {
				if _, err := driver.OptimizeModule(mod); err != nil {
					t.Fatal(err)
				}
			}
			prep, err := interp.Prepare(mod)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := interp.Compile(mod, prep)
			if err != nil {
				t.Fatal(err)
			}
			for pair, n := range interp.FusedPairs(prep) {
				seen[pair] += n
			}
			sweepKillPoints(t, mod, comp)
		})
	}
	for _, pair := range fusedPairs {
		if seen[pair] == 0 {
			t.Errorf("the sweep program has no %s pair (has %v)", pair, seen)
		}
	}
}

// sweepKillPoints is TestFusedKillPoints's sweep over one lowering of the
// program.
func sweepKillPoints(t *testing.T, mod *core.Module, comp *interp.Compiled) {
	full := sweepSession(t, mod, nil, nil, &rt.Env{})
	if full.err != nil || full.out == "" {
		t.Fatalf("reference: %q, %v", full.out, full.err)
	}
	drain := full.steps
	if drain >= 4096 {
		t.Fatalf("drain %d: the interrupt sweep below needs the run inside one poll period", drain)
	}
	engines := []struct {
		name string
		form func() *interp.Compiled
	}{
		{"compiled", func() *interp.Compiled { return comp }},
		{"lazy", func() *interp.Compiled { return interp.Lazy(mod) }},
	}
	agree := func(point string, ref sessionResult, engine string, got sessionResult) {
		t.Helper()
		compareSessions(t, engine, ref, got)
		if t.Failed() {
			t.Fatalf("first divergence at %s", point)
		}
	}

	closed := make(chan struct{})
	close(closed)
	for k := int64(1); k <= drain+1; k++ {
		// The step kill at step k.
		ref := sweepSession(t, mod, nil, nil, &rt.Env{MaxSteps: k})
		for _, e := range engines {
			agree(fmt.Sprint("max_steps ", k), ref, e.name, sweepSession(t, mod, e.form(), nil, &rt.Env{MaxSteps: k}))
		}
		// The interrupt poll at step k: a count pre-charged to 4096-k
		// polls a closed interrupt k steps in.
		pre := 4096 - k
		ref = sweepSession(t, mod, nil, nil, &rt.Env{Steps: pre, Interrupt: closed})
		for _, e := range engines {
			agree(fmt.Sprint("interrupt at step ", k), ref, e.name, sweepSession(t, mod, e.form(), nil, &rt.Env{Steps: pre, Interrupt: closed}))
		}
	}

	// A clone starts with its initializers' drain pre-charged; the step
	// kill then lands at every step main takes.
	for _, e := range engines {
		snap := snapshotOf(t, mod, e.form())
		for k := snap.InitSteps(); k <= drain+1; k++ {
			ref := sweepSession(t, mod, nil, nil, &rt.Env{MaxSteps: k})
			agree(fmt.Sprint("clone max_steps ", k), ref, e.name+" clone", sweepSession(t, mod, nil, snap, &rt.Env{MaxSteps: k}))
		}
	}
}
