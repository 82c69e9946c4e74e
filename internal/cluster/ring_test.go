package cluster

import (
	"fmt"
	"testing"
)

func TestRingDeterministicAcrossConstructionOrder(t *testing.T) {
	a, err := NewRing([]string{"a1", "b2", "c3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"c3", "a1", "b2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("rings disagree on %s: %s vs %s", k, a.Owner(k), b.Owner(k))
		}
	}
}

func TestRingCoversAllNodes(t *testing.T) {
	nodes := []string{"a1", "b2", "c3"}
	r, err := NewRing(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	owned := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		owned[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for _, n := range nodes {
		if owned[n] == 0 {
			t.Errorf("node %s owns no keys", n)
		}
		// With 64 vnodes the split should be within a few x of even; the
		// point of the assertion is that no node is starved or dominant.
		if owned[n] < keys/10 {
			t.Errorf("node %s owns only %d/%d keys — ring badly unbalanced", n, owned[n], keys)
		}
	}
}

func TestRingSingleNodeOwnsEverything(t *testing.T) {
	r, err := NewRing([]string{"solo"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if got := r.Owner(fmt.Sprintf("key-%d", i)); got != "solo" {
			t.Fatalf("single-node ring routed to %q", got)
		}
	}
}

func TestRingRejectsBadMemberships(t *testing.T) {
	cases := [][]string{nil, {}, {"a", "a"}, {""}, {"a", ""}}
	for _, nodes := range cases {
		if _, err := NewRing(nodes, 8); err == nil {
			t.Errorf("NewRing(%q) accepted an invalid membership", nodes)
		}
	}
}
