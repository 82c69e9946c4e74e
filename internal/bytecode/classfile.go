package bytecode

import (
	"fmt"
	"strings"
)

// Constant-pool entry tags.
type cpTag uint8

// The constant-pool entry kinds (a compact analog of the class-file
// pool).
const (
	cpUTF8 cpTag = iota + 1
	cpInt
	cpLong
	cpDouble
	cpString
	cpClass
	cpFieldRef
	cpMethodRef
)

// CPEntry is one constant-pool slot.
type CPEntry struct {
	Tag cpTag
	S   string // utf8 payload
	I   int64
	D   float64
	// Ref payloads: class name, member name, descriptor (as utf8
	// indices, like the real pool's indirection).
	A, B, C int32
}

// ConstPool interns constants and symbolic references.
type ConstPool struct {
	Entries []CPEntry
	index   map[string]int32
}

// NewConstPool returns an empty pool (index 0 is reserved, as in class
// files).
func NewConstPool() *ConstPool {
	return &ConstPool{Entries: make([]CPEntry, 1), index: make(map[string]int32)}
}

func (cp *ConstPool) intern(key string, e CPEntry) int32 {
	if i, ok := cp.index[key]; ok {
		return i
	}
	i := int32(len(cp.Entries))
	cp.Entries = append(cp.Entries, e)
	cp.index[key] = i
	return i
}

// UTF8 interns a string payload.
func (cp *ConstPool) UTF8(s string) int32 {
	return cp.intern("u:"+s, CPEntry{Tag: cpUTF8, S: s})
}

// Long interns a long constant.
func (cp *ConstPool) Long(v int64) int32 {
	return cp.intern(fmt.Sprintf("l:%d", v), CPEntry{Tag: cpLong, I: v})
}

// Double interns a double constant (by bit pattern).
func (cp *ConstPool) Double(v float64) int32 {
	return cp.intern(fmt.Sprintf("d:%b", v), CPEntry{Tag: cpDouble, D: v})
}

// Str interns a string constant.
func (cp *ConstPool) Str(s string) int32 {
	u := cp.UTF8(s)
	return cp.intern(fmt.Sprintf("s:%d", u), CPEntry{Tag: cpString, A: u})
}

// Class interns a class reference.
func (cp *ConstPool) Class(name string) int32 {
	u := cp.UTF8(name)
	return cp.intern(fmt.Sprintf("c:%d", u), CPEntry{Tag: cpClass, A: u})
}

// FieldRef interns a symbolic field reference.
func (cp *ConstPool) FieldRef(class, name, desc string) int32 {
	c, n, d := cp.Class(class), cp.UTF8(name), cp.UTF8(desc)
	return cp.intern(fmt.Sprintf("f:%d:%d:%d", c, n, d),
		CPEntry{Tag: cpFieldRef, A: c, B: n, C: d})
}

// MethodRef interns a symbolic method reference.
func (cp *ConstPool) MethodRef(class, name, desc string) int32 {
	c, n, d := cp.Class(class), cp.UTF8(name), cp.UTF8(desc)
	return cp.intern(fmt.Sprintf("m:%d:%d:%d", c, n, d),
		CPEntry{Tag: cpMethodRef, A: c, B: n, C: d})
}

// ExcEntry is one exception-table row.
type ExcEntry struct {
	Start, End, Handler int32
	CatchType           int32 // constant-pool class index, 0 = any
}

// Method is one compiled method.
type Method struct {
	Name      string
	Desc      string
	Static    bool
	Code      []Instr
	MaxLocals int
	ExcTable  []ExcEntry
}

// Sig renders name+descriptor.
func (m *Method) Sig() string { return m.Name + m.Desc }

// FieldInfo is one declared field.
type FieldInfo struct {
	Name   string
	Desc   string
	Static bool
}

// ClassFile is one compiled class.
type ClassFile struct {
	Name    string
	Super   string
	CP      *ConstPool
	Fields  []FieldInfo
	Methods []*Method
}

// Program is a set of class files (the baseline's "jar").
type Program struct {
	Classes []*ClassFile
	// Main names the class holding the entry method, "" if none, and
	// MainDesc is the entry's descriptor. The entry is chosen as ssabuild
	// chooses it: the first static main() or main(String[]) in
	// declaration order.
	Main, MainDesc string
}

// NumInstrs counts the instructions of a class (the paper's Figure 5
// column for Java bytecode).
func (cf *ClassFile) NumInstrs() int {
	n := 0
	for _, m := range cf.Methods {
		n += len(m.Code)
	}
	return n
}

// NumInstrs counts instructions over the whole program.
func (p *Program) NumInstrs() int {
	n := 0
	for _, c := range p.Classes {
		n += c.NumInstrs()
	}
	return n
}

// descriptor helpers -----------------------------------------------------

// MethodDesc builds a Java-style method descriptor.
func MethodDesc(params []string, result string) string {
	var sb strings.Builder
	sb.WriteByte('(')
	for _, p := range params {
		sb.WriteString(p)
	}
	sb.WriteByte(')')
	sb.WriteString(result)
	return sb.String()
}

// descSlots counts the local-variable slots of a descriptor's parameters
// (long and double take two, as in the JVM).
func descSlots(desc string) int {
	n := 0
	i := 1 // skip '('
	for desc[i] != ')' {
		switch desc[i] {
		case 'J', 'D':
			n += 2
			i++
		case 'L':
			n++
			for desc[i] != ';' {
				i++
			}
			i++
		case '[':
			n++
			for desc[i] == '[' {
				i++
			}
			if desc[i] == 'L' {
				for desc[i] != ';' {
					i++
				}
			}
			i++
		default:
			n++
			i++
		}
	}
	return n
}

// paramDescs splits a method descriptor into its parameter descriptors
// and the result descriptor.
func paramDescs(desc string) ([]string, string) {
	var out []string
	i := 1
	for desc[i] != ')' {
		start := i
		for desc[i] == '[' {
			i++
		}
		if desc[i] == 'L' {
			for desc[i] != ';' {
				i++
			}
		}
		i++
		out = append(out, desc[start:i])
	}
	return out, desc[i+1:]
}
