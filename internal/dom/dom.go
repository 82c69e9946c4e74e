// Package dom computes dominator trees over small integer-indexed flow
// graphs. It provides two independent implementations — the iterative
// Cooper–Harvey–Kennedy algorithm used in production and the classic
// Lengauer–Tarjan algorithm [21 in the paper] — which the tests check
// against each other. SafeTSA derives its flow graphs from the Control
// Structure Tree, so block counts are small and the simple algorithm is
// fast in practice.
package dom

// Graph is the input flow graph: nodes are 0..N-1 with node Entry as the
// root; Preds returns the predecessor list of a node.
type Graph struct {
	N     int
	Entry int
	Preds func(int) [][2]int // (pred node, edge tag); tag ignored here
}

// succsOf inverts the predecessor lists. The successor lists are cut from
// one vector, each to its exact length.
func succsOf(n int, preds func(int) []int) [][]int {
	succ := make([][]int, n)
	count := make([]int, n+1) // count[p+1]: successors of p, then its offset
	for v := 0; v < n; v++ {
		for _, p := range preds(v) {
			count[p+1]++
		}
	}
	for p := 0; p < n; p++ {
		count[p+1] += count[p]
	}
	flat := make([]int, count[n])
	for p := 0; p < n; p++ {
		succ[p] = flat[count[p]:count[p]:count[p+1]]
	}
	for v := 0; v < n; v++ {
		for _, p := range preds(v) {
			succ[p] = append(succ[p], v)
		}
	}
	return succ
}

// postorder computes a postorder over the reachable subgraph.
func postorder(n, entry int, succ [][]int) []int {
	seen := make([]bool, n)
	order := make([]int, 0, n)
	type frame struct {
		node int
		next int
	}
	stack := []frame{{entry, 0}}
	seen[entry] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(succ[f.node]) {
			s := succ[f.node][f.next]
			f.next++
			if !seen[s] {
				seen[s] = true
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		order = append(order, f.node)
		stack = stack[:len(stack)-1]
	}
	return order
}

// Compute returns idom[v] for every node v reachable from entry using the
// Cooper–Harvey–Kennedy iterative algorithm; idom[entry] == entry and
// idom[v] == -1 for unreachable nodes.
func Compute(n, entry int, preds func(int) []int) []int {
	succ := succsOf(n, preds)
	post := postorder(n, entry, succ)
	postIdx := make([]int, n)
	for i := range postIdx {
		postIdx[i] = -1
	}
	for i, v := range post {
		postIdx[v] = i
	}
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[entry] = entry

	intersect := func(a, b int) int {
		for a != b {
			for postIdx[a] < postIdx[b] {
				a = idom[a]
			}
			for postIdx[b] < postIdx[a] {
				b = idom[b]
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		// Reverse postorder.
		for i := len(post) - 1; i >= 0; i-- {
			v := post[i]
			if v == entry {
				continue
			}
			newIdom := -1
			for _, p := range preds(v) {
				if postIdx[p] < 0 || idom[p] < 0 {
					continue // unreachable or not yet processed
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom >= 0 && idom[v] != newIdom {
				idom[v] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// ComputeLT returns idom[v] using the Lengauer–Tarjan algorithm (simple
// path-compression variant); results match Compute on every graph.
func ComputeLT(n, entry int, preds func(int) []int) []int {
	succ := succsOf(n, preds)

	// DFS numbering.
	semi := make([]int, n) // DFS number, -1 if unreachable
	vertex := make([]int, 0, n)
	parent := make([]int, n)
	for i := range semi {
		semi[i] = -1
		parent[i] = -1
	}
	type frame struct {
		node int
		next int
	}
	stack := []frame{{entry, 0}}
	semi[entry] = 0
	vertex = append(vertex, entry)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(succ[f.node]) {
			s := succ[f.node][f.next]
			f.next++
			if semi[s] < 0 {
				semi[s] = len(vertex)
				vertex = append(vertex, s)
				parent[s] = f.node
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		stack = stack[:len(stack)-1]
	}

	m := len(vertex)
	ancestor := make([]int, n)
	label := make([]int, n)
	dom := make([]int, n)
	bucket := make([][]int, n)
	for i := range ancestor {
		ancestor[i] = -1
		label[i] = i
		dom[i] = -1
	}

	var compress func(v int)
	compress = func(v int) {
		if ancestor[ancestor[v]] < 0 {
			return
		}
		compress(ancestor[v])
		if semi[label[ancestor[v]]] < semi[label[v]] {
			label[v] = label[ancestor[v]]
		}
		ancestor[v] = ancestor[ancestor[v]]
	}
	eval := func(v int) int {
		if ancestor[v] < 0 {
			return label[v]
		}
		compress(v)
		return label[v]
	}

	for i := m - 1; i >= 1; i-- {
		w := vertex[i]
		for _, v := range preds(w) {
			if semi[v] < 0 {
				continue
			}
			u := eval(v)
			if semi[u] < semi[w] {
				semi[w] = semi[u]
			}
		}
		bucket[vertex[semi[w]]] = append(bucket[vertex[semi[w]]], w)
		ancestor[w] = parent[w]
		for _, v := range bucket[parent[w]] {
			u := eval(v)
			if semi[u] < semi[v] {
				dom[v] = u
			} else {
				dom[v] = parent[w]
			}
		}
		bucket[parent[w]] = nil
	}
	for i := 1; i < m; i++ {
		w := vertex[i]
		if dom[w] != vertex[semi[w]] {
			dom[w] = dom[dom[w]]
		}
	}
	dom[entry] = entry

	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	for i := 0; i < m; i++ {
		idom[vertex[i]] = dom[vertex[i]]
	}
	return idom
}
