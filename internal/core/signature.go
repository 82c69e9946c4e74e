package core

import "fmt"

// Signature is what an opcode and its immediates imply about one
// instruction — the paper's central idea (section 4): the operand and
// result planes are never named, they follow from the opcode and its
// type arguments, so an ill-typed instruction has no spelling.
//
// Module.Signature is the repo's only statement of that implication.
// The verifier checks an instruction against it, the wire encoder emits
// one reference per operand plane it yields, and the wire decoder reads
// one reference per operand plane and takes the result plane from it, so
// the decoder cannot produce an instruction the verifier's typing would
// reject. A rule error means the same thing to each client in its own
// terms: the verifier reports it, the decoder returns it wrapped in
// wire.ErrMalformed (hostile bytes), and the encoder panics (a producer
// bug — an unverified module must not reach the encoder).
type Signature struct {
	// Result is the type of the result plane; Void when the instruction
	// defines no value.
	Result TypeID
	// BindResult marks indexcheck: its safe-index result is bound to
	// operand 0, the array value it was checked against (Appendix A).
	BindResult bool

	fixed  [3]TypeID // leading operand planes
	nfixed int
	params []TypeID // a call's parameter planes, aliasing the method table
	// boundIndex marks getelt/setelt: operand 1 lives on the safe-index
	// plane bound to the array value that is operand 0.
	boundIndex bool
}

func (s *Signature) operand(t TypeID) {
	s.fixed[s.nfixed] = t
	s.nfixed++
}

// NumOperands is the instruction's arity.
func (s *Signature) NumOperands() int { return s.nfixed + len(s.params) }

// Operand returns the plane of operand i. arg0 is the value of operand 0,
// which selects the per-array-value index plane of getelt/setelt; it is
// ignored everywhere else, so a client that is still reading operand 0
// may pass anything.
func (s *Signature) Operand(i int, arg0 ValueID) PlaneKey {
	if i >= s.nfixed {
		return PlaneKey{Type: s.params[i-s.nfixed]}
	}
	k := PlaneKey{Type: s.fixed[i]}
	if i == 1 && s.boundIndex {
		k.Bind = arg0
	}
	return k
}

// Signature derives the signature of a code-section instruction of f
// from its opcode and immediates alone — Op, Prim, Field, Method,
// TypeArg, ArgType, Aux, Const.Kind, and for a null constant the Type
// that names its plane — never from Args, Bind or (null aside) Type. It
// allocates nothing. The error reports a violated side condition: an
// immediate out of range, a type argument of the wrong kind, a cast
// that would add safety, a primitive under the wrong opcode, or an
// opcode (phi, mem0) that has no place in a transmitted code section.
//
// s is named so that it is built in the caller's result slot, not copied
// there at a return: the decoder and the verifier ask on every
// instruction.
func (m *Module) Signature(f *Func, in *Instr) (s Signature, err error) {
	tt := m.Types
	switch in.Op {
	case OpParam:
		if in.Aux < 0 || int(in.Aux) >= m.NumParams(f) {
			return s, fmt.Errorf("parameter index %d out of range", in.Aux)
		}
		s.Result = m.Param(f, int(in.Aux))
	case OpConst:
		switch in.Const.Kind {
		case KInt:
			s.Result = tt.Int
		case KLong:
			s.Result = tt.Long
		case KDouble:
			s.Result = tt.Double
		case KBool:
			s.Result = tt.Boolean
		case KChar:
			s.Result = tt.Char
		case KString:
			s.Result = tt.String
		case KNull:
			if !tt.IsRefType(in.Type) {
				return s, fmt.Errorf("null constant on non-reference plane %s", tt.Describe(in.Type))
			}
			s.Result = in.Type
		default:
			return s, fmt.Errorf("constant without kind")
		}
	case OpPrim, OpXPrim:
		if !in.Prim.Valid() {
			return s, fmt.Errorf("unknown primitive %d", in.Prim)
		}
		sig := &primSigs[in.Prim]
		if sig.Throws != (in.Op == OpXPrim) {
			return s, fmt.Errorf("%s used with %s", sig.Name, in.Op)
		}
		for _, pc := range sig.Params {
			s.operand(PlaneType(tt, pc))
		}
		s.Result = PlaneType(tt, sig.Result)
	case OpNullCheck:
		if !tt.IsRefType(in.ArgType) {
			return s, fmt.Errorf("nullcheck of non-reference type %s", tt.Describe(in.ArgType))
		}
		s.operand(in.ArgType)
		s.Result = tt.SafeRefOf(in.ArgType)
	case OpUpcast, OpInstanceOf:
		if !tt.IsRefType(in.ArgType) || !tt.IsRefType(in.TypeArg) {
			return s, fmt.Errorf("%s between non-reference types", in.Op)
		}
		s.operand(in.ArgType)
		s.Result = in.TypeArg
		if in.Op == OpInstanceOf {
			s.Result = tt.Boolean
		}
	case OpDowncast:
		src, dst := tt.Get(in.ArgType), tt.Get(in.TypeArg)
		if src == nil || dst == nil {
			return s, fmt.Errorf("downcast with invalid types")
		}
		if dst.Kind == TSafeRef && src.Kind != TSafeRef {
			return s, fmt.Errorf("downcast cannot add safety (%s to %s)",
				tt.Describe(src.ID), tt.Describe(dst.ID))
		}
		if !tt.IsSubclass(tt.BaseRef(src.ID), tt.BaseRef(dst.ID)) {
			return s, fmt.Errorf("downcast %s to %s is not statically safe",
				tt.Describe(src.ID), tt.Describe(dst.ID))
		}
		s.operand(src.ID)
		s.Result = dst.ID
	case OpGetField, OpSetField:
		if in.Field < 0 || int(in.Field) >= len(m.Fields) {
			return s, fmt.Errorf("field index %d out of range", in.Field)
		}
		fr := &m.Fields[in.Field]
		if !fr.Static {
			s.operand(tt.SafeRefOf(fr.Owner))
		}
		s.Result = fr.Type
		if in.Op == OpSetField {
			s.operand(fr.Type)
			s.Result = tt.Void
		}
	case OpIndexCheck, OpGetElt, OpSetElt, OpArrayLen, OpNewArray:
		at := tt.Get(in.TypeArg)
		if at == nil || at.Kind != TArray {
			return s, fmt.Errorf("%s of non-array type %s", in.Op, tt.Describe(in.TypeArg))
		}
		safeArray := tt.SafeRefOf(at.ID)
		switch in.Op {
		case OpNewArray:
			s.operand(tt.Int)
			s.Result = safeArray
		case OpArrayLen:
			s.operand(safeArray)
			s.Result = tt.Int
		case OpIndexCheck:
			s.operand(safeArray)
			s.operand(tt.Int)
			s.Result, s.BindResult = tt.SafeIndexOf(at.ID), true
		default:
			// Only an index checked against this very array value is
			// expressible (Appendix A's per-value binding).
			s.operand(safeArray)
			s.operand(tt.SafeIndexOf(at.ID))
			s.boundIndex = true
			s.Result = at.Elem
			if in.Op == OpSetElt {
				s.operand(at.Elem)
				s.Result = tt.Void
			}
		}
	case OpXCall, OpXDispatch:
		if in.Method < 0 || int(in.Method) >= len(m.Methods) {
			return s, fmt.Errorf("method index %d out of range", in.Method)
		}
		mr := &m.Methods[in.Method]
		if in.Op == OpXDispatch && mr.VSlot < 0 {
			return s, fmt.Errorf("xdispatch of non-virtual method %s", mr.Sig(tt))
		}
		if !mr.Static {
			s.operand(tt.SafeRefOf(mr.Owner))
		}
		s.params = mr.Params
		// A method table may spell "no result" as NoType or as Void;
		// the instruction's plane is Void either way.
		s.Result = mr.Result
		if s.Result == NoType {
			s.Result = tt.Void
		}
	case OpNew:
		if ct := tt.Get(in.TypeArg); ct == nil || ct.Kind != TClass {
			return s, fmt.Errorf("new of non-class type %s", tt.Describe(in.TypeArg))
		}
		s.Result = tt.SafeRefOf(in.TypeArg)
	case OpCatch:
		s.Result = tt.Throwable
	case OpPhi:
		return s, fmt.Errorf("phi outside the phi section")
	case OpMem0:
		return s, fmt.Errorf("memory-state value outside optimization")
	default:
		return s, fmt.Errorf("unknown opcode %d", in.Op)
	}
	return s, nil
}

// RefPlane is the Control Structure Tree's share of the same rule: the
// value slot node n of f references from n.At, and the plane that
// reference is drawn from — an if/while/dowhile condition on the
// boolean plane, a returned value on the function's result plane, a
// thrown value on the Throwable plane (the builder normalizes thrown
// values onto it). The slot is nil for nodes that reference nothing,
// including a return that carries no value (Val == NoValue).
func (m *Module) RefPlane(f *Func, n *CSTNode) (*ValueID, PlaneKey, error) {
	tt := m.Types
	switch n.Kind {
	case CIf, CWhile, CDoWhile:
		return &n.Cond, PlaneKey{Type: tt.Boolean}, nil
	case CReturn:
		if n.Val == NoValue {
			return nil, PlaneKey{}, nil
		}
		res := m.Result(f)
		if res == NoType || res == tt.Void {
			return nil, PlaneKey{}, fmt.Errorf("value returned from a void function")
		}
		return &n.Val, PlaneKey{Type: res}, nil
	case CThrow:
		return &n.Val, PlaneKey{Type: tt.Throwable}, nil
	}
	return nil, PlaneKey{}, nil
}
