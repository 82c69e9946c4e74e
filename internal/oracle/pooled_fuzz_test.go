package oracle_test

import (
	"testing"

	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/fuzzseed"
	"safetsa/internal/oracle"
	"safetsa/internal/wire"
)

// pooledSeedSources aim at the warm-session snapshot machinery's hard
// cases: heavy static initializers (the state a snapshot freezes),
// statics that alias one heap object (the cloner must preserve the
// aliasing, not duplicate the object), init-time output (replayed onto
// clones), object identity fixed during init (clones must preserve ids
// and the id cursor), initializers that die on a budget or an uncaught
// exception (no snapshot may form), mains that mutate the statics a clone
// inherited, and strings frozen into the snapshot, which a clone must copy
// as it copies objects (the builder's are released with it).
var pooledSeedSources = map[string]string{
	"init_string_heap": `
class Node {
    String name;
    Node next;
    Node(String n, Node x) { name = n; next = x; }
}
class Strs {
    static String greeting = "hello, " + "world";
    static Node chain = Strs.build();
    static Node build() {
        Node n = null;
        for (int i = 0; i < 12; i++) { n = new Node("n" + i, n); }
        return n;
    }
    static void main() {
        System.out.println(Strs.greeting + " " + Strs.chain.name + Strs.chain.next.name);
        Strs.greeting = "changed";
        Strs.chain.name = "mutated";
    }
}`,
	// A session that dies of the depth limit, inside the initializers (no
	// snapshot may form) or in main after init succeeded (a clone must die
	// on the step a fresh session does).
	"init_depth_kill": `
class Deep {
    static int x = Deep.start();
    static int start() { Deep.down(); return 1; }
    static void down() { Deep.down(); }
    static void main() {
        System.out.println(Deep.x);
    }
}`,
	"main_depth_kill": `
class Deep {
    static int[] table = Deep.build();
    static int[] build() {
        int[] t = new int[64];
        for (int i = 0; i < 64; i++) { t[i] = i * 3; }
        System.out.println("init ran");
        return t;
    }
    static void down() { Deep.down(); }
    static void main() {
        System.out.println(Deep.table[63]);
        Deep.down();
    }
}`,
	"init_table": `
class Warm {
    static int[] table = Warm.build();
    static int[] build() {
        int[] t = new int[256];
        for (int i = 0; i < 256; i++) {
            t[i] = i * i % 8191;
        }
        return t;
    }
    static void main() {
        System.out.println(Warm.table[100] + Warm.table[255]);
    }
}`,
	"init_aliased_statics": `
class Share {
    static int[] a = Share.mk();
    static int[] b = Share.a;
    static int[] mk() {
        int[] t = new int[8];
        t[0] = 7;
        return t;
    }
    static void main() {
        Share.a[0] = Share.a[0] + 1;
        System.out.println(Share.b[0]);
    }
}`,
	"init_prints": `
class Chatty {
    static int x = Chatty.announce();
    static int announce() {
        System.out.println("init ran");
        return 41;
    }
    static void main() {
        System.out.println(Chatty.x + 1);
    }
}`,
	"init_object_identity": `
class Node {
    Node next;
}
class Ring {
    static Node head = Ring.mk();
    static Node mk() {
        Node a = new Node();
        Node b = new Node();
        a.next = b;
        b.next = a;
        return a;
    }
    static void main() {
        Node fresh = new Node();
        System.out.println(Ring.head == Ring.head.next.next);
        System.out.println(fresh == Ring.head);
    }
}`,
	"init_throws": `
class Boom {
    static int x = Boom.blow();
    static int blow() {
        throw new Exception("static init exploded");
    }
    static void main() {
        System.out.println(Boom.x);
    }
}`,
	"init_step_kill": `
class Grind {
    static long total = Grind.spin();
    static long spin() {
        long s = 0L;
        int i = 0;
        while (i < 1000000000) {
            s = s + (i % 7);
            i = i + 1;
        }
        return s;
    }
    static void main() {
        System.out.println(Grind.total);
    }
}`,
	"main_mutates_statics": `
class Counter {
    static int n = 100;
    static int[] log = new int[4];
    static void main() {
        for (int i = 0; i < 4; i++) {
            Counter.n = Counter.n + i;
            Counter.log[i] = Counter.n;
        }
        System.out.println(Counter.n + " " + Counter.log[3]);
    }
}`,
}

// pooledSeeds is FuzzPooledDifferential's generated corpus.
var pooledSeeds = seedSet{pooledSeedSources, []string{"p0", "p1"}}

// FuzzPooledDifferential fuzzes the warm-session-pool soundness oracle:
// for every byte string that passes wire admission, a session cloned
// from a post-static-init snapshot must be byte-exact with a fresh
// session (output, error, kill reason, budget drain, heap checksum) on
// all three engines, and snapshots must pass their publish-time
// self-verification. Run by CI as a fuzz-smoke job and, on its generated
// seeds, on every plain `go test`.
func FuzzPooledDifferential(f *testing.F) {
	fuzzseed.Add(f, pooledSeeds.seeds(f))
	f.Fuzz(fuzzseed.Once(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		if err := oracle.PooledDifferential(data, fuzzBudgets); err != nil {
			t.Fatal(err)
		}
	}))
}

// TestPooledDifferentialSeeds replays the hand-written seeds through the
// pooled-vs-fresh oracle by program — the init-killed and init-throwing
// cases where no snapshot may form among them — so a failing parity claim
// is reported by the program it failed on.
func TestPooledDifferentialSeeds(t *testing.T) {
	pooledSeeds.replay(t, oracle.PooledDifferential)
}

// TestPooledParityCorpusSweep holds the pooled-session oracle over the
// whole paper corpus on all three engines: every corpus unit, optimized
// and not, must serve byte-exact clones.
func TestPooledParityCorpusSweep(t *testing.T) {
	budgets := oracle.Budgets{MaxSteps: 1 << 22, MaxAlloc: 1 << 24}
	for _, u := range corpus.Units() {
		t.Run(u.Name, func(t *testing.T) {
			mod, err := driver.CompileTSASource(u.Files)
			if err != nil {
				t.Fatal(err)
			}
			if err := oracle.PooledDifferential(wire.EncodeModule(mod), budgets); err != nil {
				t.Fatal(err)
			}
			if _, err := driver.OptimizeModule(mod); err != nil {
				t.Fatal(err)
			}
			if err := oracle.PooledDifferential(wire.EncodeModule(mod), budgets); err != nil {
				t.Fatal(err)
			}
		})
	}
}
