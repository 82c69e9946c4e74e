package driver

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// wideRoot is a TJ source of one class of methods methods over a chain of
// depth empty subclasses.
func wideRoot(methods, depth int) string {
	var b strings.Builder
	b.WriteString("class C0 {\n")
	for i := range methods {
		fmt.Fprintf(&b, "    int m%d() { return %d; }\n", i, i)
	}
	b.WriteString("    static void main() { }\n}\n")
	for i := 1; i <= depth; i++ {
		fmt.Fprintf(&b, "class C%d extends C%d { }\n", i, i-1)
	}
	return b.String()
}

// TestFrontendBytesBoundedBySource: the front end allocates in proportion
// to its source, not to the dispatch tables its classes would have. A
// 2 000-method root over a chain of 1 000 empty subclasses is held to
// 64 host bytes per source byte; a front end that builds each class's
// dispatch table, or walks each class's ancestors with a map of its own,
// takes several hundred. The least of three runs is read, so that
// another goroutine's allocation does not count.
func TestFrontendBytesBoundedBySource(t *testing.T) {
	src := wideRoot(2000, 1000)
	files := map[string]string{"W.tj": src}
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Frontend(files); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	perByte := float64(least) / float64(len(src))
	t.Logf("%d B of source, %d B allocated: %.1f B per byte", len(src), least, perByte)
	if perByte > 64 {
		t.Errorf("the front end allocated %.1f B per source byte, over 64", perByte)
	}
}
