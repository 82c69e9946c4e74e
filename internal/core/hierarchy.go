package core

// Whole-module hierarchy and call-graph queries. The wire format ships
// complete distribution units — every class a unit defines travels with
// it, imported host classes are tamper-proof, and nothing can extend a
// unit's classes from outside (the type table is sealed at decode time).
// That closed-world property is what makes class-hierarchy analysis over
// one Module sound, and these queries are the substrate of the
// interprocedural optimizer tier (devirtualization, inlining).

import (
	"slices"
	"strings"
)

// Subclasses returns the module's class definitions whose type is a
// reflexive subclass of root, in Classes order (subclassSet).
func (m *Module) Subclasses(root TypeID) []*ClassDef {
	var small [8]uint64
	in := m.subclassSet(root, small[:])
	var out []*ClassDef
	for _, cd := range m.Classes {
		if in.has(cd.Type) {
			out = append(out, cd)
		}
	}
	return out
}

// typeSet is a set of TypeIDs, one bit each.
type typeSet []uint64

func (s typeSet) has(t TypeID) bool { return int(t/64) < len(s) && s[t/64]&(1<<(t%64)) != 0 }

// subclassSet is the set of the unit's class types that are reflexive
// subclasses of root, made in buf when it is long enough (8 words hold a
// table of 512 types). The definitions stand in type order, which puts
// every superclass before its subclasses, so one pass decides each class
// by its superclass: a class is in when it is root or its superclass is —
// a unit class already decided, or an imported one under root.
func (m *Module) subclassSet(root TypeID, buf []uint64) typeSet {
	in := typeSet(buf)
	if n := (len(m.Types.ByID) + 63) / 64; n > len(in) {
		in = make(typeSet, n)
	}
	clear(in)
	for _, cd := range m.Classes {
		unit := m.unitClass(cd.Super)
		if cd.Type == root || unit && in.has(cd.Super) || !unit && m.Types.IsSubclass(cd.Super, root) {
			in[cd.Type/64] |= 1 << (cd.Type % 64)
		}
	}
	return in
}

// InstantiatedClasses returns the set of class types the module can ever
// instantiate: the TypeArg of every OpNew in any function (rapid type
// analysis). Host-allocated objects (strings, runtime exceptions) are
// instances of imported classes, which user classes cannot subclass, so
// for dispatch sites rooted at a unit-defined class this set covers
// every possible runtime receiver class.
func (m *Module) InstantiatedClasses() map[TypeID]bool {
	inst := make(map[TypeID]bool)
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Code {
				if in.Op == OpNew {
					inst[in.TypeArg] = true
				}
			}
		}
	}
	return inst
}

// MonomorphicTarget resolves a dispatch through the method-table entry
// at index method to its unique implementation, if one exists: every
// candidate receiver class (reflexive subclasses of the owner,
// restricted to instantiated when non-nil) must name the same
// method-table index in its dispatch-table slot. It returns -1 when the
// site is not provably monomorphic: a polymorphic slot, no candidate
// receiver class at all, an owner outside the unit (imported classes can
// have host-implemented instances the dispatch tables do not describe),
// or a malformed slot.
func (m *Module) MonomorphicTarget(method int32, instantiated map[TypeID]bool) int32 {
	if method < 0 || int(method) >= len(m.Methods) {
		return -1
	}
	mr := &m.Methods[method]
	if mr.VSlot < 0 {
		return -1
	}
	owner := m.Types.Get(mr.Owner)
	if owner == nil || owner.Imported {
		return -1
	}
	target := int32(-1)
	for _, cd := range m.Subclasses(mr.Owner) {
		if instantiated != nil && !instantiated[cd.Type] {
			continue
		}
		if int(mr.VSlot) >= len(cd.VTable) {
			return -1
		}
		t := cd.VTable[mr.VSlot]
		if target == -1 {
			target = t
		} else if target != t {
			return -1
		}
	}
	return target
}

// CallGraph is a module's call graph over unit-local bodies. Node i below
// Bodies is m.Funcs[i]; each method an xdispatch names has one node past
// the bodies, whose successors are the bodies a receiver of a subclass of
// its owner can select: the bodies of the unit's virtual methods of its
// name and parameters that its owner or a subclass declares, computed once.
// A body's successors are the bodies its xcalls name and the nodes of the
// methods it dispatches, each once. So a dispatch site is one edge however
// many overrides it can select, and the graph's size is the module's call
// sites plus its dispatched methods' overrides. Imported callees (no body
// in the unit) do not appear.
type CallGraph struct {
	Bodies int
	// start[n] is where node n's successors begin in succ; the last entry
	// ends the last node's.
	start []int32
	succ  []int32
}

// Nodes is the number of nodes: the bodies, then the dispatched methods.
func (g *CallGraph) Nodes() int { return len(g.start) - 1 }

// Succ is node n's successors.
func (g *CallGraph) Succ(n int32) []int32 { return g.succ[g.start[n]:g.start[n+1]] }

// Reach reports, per node, whether a path leads to it from the nodes in
// roots; a negative root is skipped.
func (g *CallGraph) Reach(roots ...int32) []bool {
	reach := make([]bool, g.Nodes())
	var stack []int32
	for _, r := range roots {
		if r >= 0 && !reach[r] {
			reach[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Succ(n) {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	return reach
}

// CallGraph builds m's call graph; m's bodies must stand where their
// methods' FuncIdx say. It reads the hierarchy, not the dispatch tables, so
// it holds before they are derived.
func (m *Module) CallGraph() *CallGraph {
	nb := len(m.Funcs)
	g := &CallGraph{Bodies: nb, start: make([]int32, 0, nb+1)}
	// node[k] is method k's node less nb, plus 1; 0 until a site names it.
	node := make([]int32, len(m.Methods))
	var dispatched []int32
	// added[n] is 1 + the node whose successors last took n.
	added := make([]int32, nb)
	add := func(from int32, n int32) {
		if added[n] != from+1 {
			added[n] = from + 1
			g.succ = append(g.succ, n)
		}
	}
	virtual := func(mr *MethodRef) bool { return !mr.Static && !mr.IsCtor }
	for i, f := range m.Funcs {
		g.start = append(g.start, int32(len(g.succ)))
		for _, b := range f.Blocks {
			for _, in := range b.Code {
				switch in.Op {
				case OpXCall:
					if m.FuncOf(in.Method) != nil {
						add(int32(i), m.Methods[in.Method].FuncIdx)
					}
				case OpXDispatch:
					if in.Method < 0 || int(in.Method) >= len(m.Methods) || !virtual(&m.Methods[in.Method]) {
						continue
					}
					if node[in.Method] == 0 {
						dispatched = append(dispatched, in.Method)
						node[in.Method] = int32(len(dispatched))
						added = append(added, 0)
					}
					add(int32(i), int32(nb)+node[in.Method]-1)
				}
			}
		}
	}
	// byName is the virtual methods with a body, by name: what a dispatch
	// can select is one run of it, however many methods the subclasses own.
	var byName []int32
	if len(dispatched) > 0 {
		byName = make([]int32, 0, len(m.Methods))
		for i := range m.Methods {
			if virtual(&m.Methods[i]) && m.FuncOf(int32(i)) != nil {
				byName = append(byName, int32(i))
			}
		}
		slices.SortFunc(byName, func(a, b int32) int { return strings.Compare(m.Methods[a].Name, m.Methods[b].Name) })
	}
	var small [8]uint64
	in := typeSet(small[:])
	for k, mi := range dispatched {
		n := int32(nb + k)
		g.start = append(g.start, int32(len(g.succ)))
		mr := &m.Methods[mi]
		in = m.subclassSet(mr.Owner, in)
		j, _ := slices.BinarySearchFunc(byName, mr.Name, func(c int32, name string) int { return strings.Compare(m.Methods[c].Name, name) })
		for ; j < len(byName) && m.Methods[byName[j]].Name == mr.Name; j++ {
			if c := &m.Methods[byName[j]]; in.has(c.Owner) && slices.Equal(c.Params, mr.Params) {
				add(n, c.FuncIdx)
			}
		}
	}
	g.start = append(g.start, int32(len(g.succ)))
	return g
}

// RecursiveFuncs returns the functions that can reach themselves through
// the call graph — the ones an inliner must refuse, since expanding them
// never terminates. Indirectly recursive functions (f → g → f) are
// included. It is one pass of Tarjan's strongly-connected-components
// search: a body is recursive when its component holds another node, or
// when it calls itself.
func (m *Module) RecursiveFuncs() map[*Func]bool {
	g := m.CallGraph()
	n := g.Nodes()
	// index[v] is 1 + v's visit number, 0 until v is visited; low[v] the
	// least index v's subtree reaches on the stack.
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	var stack []int32
	type frame struct{ v, next int32 }
	var path []frame
	visited := int32(0)
	visit := func(v int32) {
		visited++
		index[v], low[v] = visited, visited
		onStack[v] = true
		stack = append(stack, v)
		path = append(path, frame{v: v})
	}
	rec := make(map[*Func]bool)
	for r := range int32(n) {
		if index[r] != 0 {
			continue
		}
		visit(r)
		for len(path) > 0 {
			fr := &path[len(path)-1]
			v := fr.v
			if succ := g.Succ(v); int(fr.next) < len(succ) {
				w := succ[fr.next]
				fr.next++
				if index[w] == 0 {
					visit(w)
				} else if onStack[w] {
					low[v] = min(low[v], index[w])
				}
				continue
			}
			path = path[:len(path)-1]
			if len(path) > 0 {
				p := path[len(path)-1].v
				low[p] = min(low[p], low[v])
			}
			if low[v] != index[v] {
				continue
			}
			j := len(stack) - 1
			for stack[j] != v {
				j--
			}
			cyclic := j < len(stack)-1 || slices.Contains(g.Succ(v), v)
			for _, w := range stack[j:] {
				onStack[w] = false
				if cyclic && int(w) < g.Bodies {
					rec[m.Funcs[w]] = true
				}
			}
			stack = stack[:j]
		}
	}
	return rec
}
