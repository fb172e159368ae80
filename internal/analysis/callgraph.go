package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the program call graph the contract analyzers
// (hotpathalloc, obspurity) reason over. It is an RTA-style
// over-approximation computed with nothing but go/ast and go/types:
//
//   - static calls resolve to their *types.Func;
//   - interface method calls resolve to the matching method of every
//     concrete type declared in the loaded packages that implements the
//     interface (class-hierarchy style, restricted to module types);
//   - calls through function values resolve via a small inclusion-based
//     flow analysis over func-typed storage locations (struct fields,
//     variables, parameters): every closure, named function, or method
//     value stored into a location flows to the calls that read it, with
//     parameter passing and field assignment tracked transitively. The
//     engine's `ev.fn()` therefore resolves to every callback handed to
//     Engine.At/After anywhere in the module;
//   - iter.Pull(seq) and iter.Pull2(seq) call seq: the coroutine body
//     runs when the returned next is called, so the edge goes from the
//     function that creates the coroutine to every value seq may hold.
//     Without it a simulated process body (sim.Proc is a coroutine) would
//     sit behind a bodiless stdlib frontier node.
//
// The graph is deterministic: nodes are created in package load order and
// edges are emitted in source order, so analyzer output is byte-stable.

// CGNode is one function in the call graph: a declared function or
// method, a function literal, or a bodiless frontier function (external,
// or a module function whose source was not loaded).
type CGNode struct {
	id int
	// Func is the declared function or method; nil for function literals.
	Func *types.Func
	// Lit is the function literal; nil for declared functions.
	Lit *ast.FuncLit
	// Pkg owns Body. nil for bodiless frontier nodes.
	Pkg *Package
	// Body is the function body, nil at the frontier.
	Body *ast.BlockStmt
	// Name is the diagnostic name, e.g. "(*sim.Engine).Step" or
	// "sim.Go·func1".
	Name string
	// Pos is the declaration (or literal) position.
	Pos token.Pos
	// Out are the call edges, deduplicated, in source order.
	Out []CGEdge
	// Decl is the declaration node, nil for literals and frontier nodes.
	Decl *ast.FuncDecl

	outSeen map[*CGNode]bool
}

// CGEdge is one call edge.
type CGEdge struct {
	// Site is the position of the call expression.
	Site token.Pos
	// Callee is the resolved target.
	Callee *CGNode
	// Kind records how the edge resolved: "static", "interface",
	// "funcvalue", or "coroutine" (iter.Pull to its seq argument).
	Kind string
}

// CallGraph is the program-wide call graph.
type CallGraph struct {
	// Nodes in creation (load) order.
	Nodes  []*CGNode
	byFunc map[*types.Func]*CGNode
	byLit  map[*ast.FuncLit]*CGNode
}

// NodeFor returns the node for a declared function, or nil.
func (g *CallGraph) NodeFor(fn *types.Func) *CGNode { return g.byFunc[fn] }

// NodeForLit returns the node for a function literal, or nil.
func (g *CallGraph) NodeForLit(lit *ast.FuncLit) *CGNode { return g.byLit[lit] }

// LookupName returns the first node whose Name matches, or nil. It exists
// for tests and diagnostics, not for analysis logic.
func (g *CallGraph) LookupName(name string) *CGNode {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// callGraph builds (and memoizes) the program call graph over every
// loaded package.
func (prog *Program) callGraph() *CallGraph {
	if prog.graph != nil {
		return prog.graph
	}
	b := &graphBuilder{
		g: &CallGraph{
			byFunc: make(map[*types.Func]*CGNode),
			byLit:  make(map[*ast.FuncLit]*CGNode),
		},
		flows:    make(map[*types.Var]*flowSet),
		valueSig: make(map[*CGNode]*types.Signature),
	}
	pkgs := prog.allPkgs()
	// Pass 1: nodes for every declared function with a body, and the
	// concrete-type inventory for interface dispatch.
	for _, pkg := range pkgs {
		b.indexPackage(pkg)
	}
	// Pass 2: walk bodies, recording static edges, dynamic sites, and
	// func-value flow constraints. New nodes are appended for literals.
	for i := 0; i < len(b.g.Nodes); i++ {
		b.walkNode(b.g.Nodes[i])
	}
	// Pass 3: propagate func-value flow to a fixpoint, then resolve the
	// dynamic sites recorded in pass 2.
	b.solveFlows()
	b.resolveDynamic()
	prog.graph = b.g
	return prog.graph
}

// flowSet is the set of function values a storage location may hold.
type flowSet struct {
	values map[*CGNode]bool
	// succs are locations this one flows into (dst ⊇ src).
	succs []*types.Var
}

type dynSite struct {
	caller *CGNode
	call   *ast.CallExpr
	// coroutine marks an iter.Pull site: the callee is the seq argument,
	// not call.Fun.
	coroutine bool
}

type ifaceSite struct {
	caller *CGNode
	call   *ast.CallExpr
	iface  *types.Interface
	method string
}

type graphBuilder struct {
	g        *CallGraph
	concrete []types.Type // named non-interface types, deterministic order
	flows    map[*types.Var]*flowSet
	valueSig map[*CGNode]*types.Signature
	allVals  []*CGNode // every stored func value, creation order
	allSeen  map[*CGNode]bool
	dyn      []dynSite
	iface    []ifaceSite
	// pendingLits defers literal-value flows until the walk has created
	// the literal's node (assignments are visited before their children).
	pendingLits []pendingLit
}

func (b *graphBuilder) newNode(n *CGNode) *CGNode {
	n.id = len(b.g.Nodes)
	n.outSeen = make(map[*CGNode]bool)
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

// funcNode returns (creating on demand) the node for a declared function.
// Functions without loaded bodies become frontier nodes.
func (b *graphBuilder) funcNode(fn *types.Func) *CGNode {
	if n, ok := b.g.byFunc[fn]; ok {
		return n
	}
	n := b.newNode(&CGNode{Func: fn, Name: shortFuncName(fn), Pos: fn.Pos()})
	b.g.byFunc[fn] = n
	return n
}

func (b *graphBuilder) addEdge(from *CGNode, site token.Pos, to *CGNode, kind string) {
	if from.outSeen[to] {
		return
	}
	from.outSeen[to] = true
	from.Out = append(from.Out, CGEdge{Site: site, Callee: to, Kind: kind})
}

// indexPackage creates nodes for the package's declared functions and
// collects its named concrete types.
func (b *graphBuilder) indexPackage(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := b.funcNode(fn)
			n.Pkg, n.Body, n.Decl, n.Pos = pkg, fd.Body, fd, fd.Name.Pos()
		}
	}
	scope := pkg.Types.Scope()
	names := scope.Names() // already sorted
	for _, name := range names {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		b.concrete = append(b.concrete, named)
	}
}

// walkNode scans one node's own statements (nested literals are separate
// nodes), recording edges, dynamic sites, and flow constraints.
func (b *graphBuilder) walkNode(n *CGNode) {
	if n.Body == nil {
		return
	}
	litCount := 0
	var walk func(ast.Node) bool
	walk = func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			litCount++
			lit := b.newNode(&CGNode{
				Lit:  c,
				Pkg:  n.Pkg,
				Body: c.Body,
				Name: fmt.Sprintf("%s·func%d", n.Name, litCount),
				Pos:  c.Pos(),
			})
			b.g.byLit[c] = lit
			return false // the literal's body belongs to its own node
		case *ast.CallExpr:
			b.recordCall(n, c)
		case *ast.AssignStmt:
			if len(c.Lhs) == len(c.Rhs) {
				for i := range c.Lhs {
					b.recordFlow(n, c.Lhs[i], c.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(c.Names) == len(c.Values) {
				for i := range c.Names {
					b.recordFlow(n, c.Names[i], c.Values[i])
				}
			}
		case *ast.CompositeLit:
			b.recordCompositeFlow(n, c)
		}
		return true
	}
	ast.Inspect(n.Body, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		return walk(c)
	})
}

// recordCall classifies one call expression in n's body.
func (b *graphBuilder) recordCall(n *CGNode, call *ast.CallExpr) {
	info := n.Pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	fun := unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.FuncLit:
		// Immediately invoked literal: the edge is added after the walk
		// creates the literal node, so defer via the dynamic list.
		b.dyn = append(b.dyn, dynSite{caller: n, call: call})
		b.recordArgFlows(n, call, nil)
		return
	case *ast.Ident:
		switch obj := info.Uses[f].(type) {
		case *types.Builtin:
			return
		case *types.Func:
			callee := b.funcNode(obj)
			b.addEdge(n, call.Pos(), callee, "static")
			b.recordArgFlows(n, call, obj)
			return
		case *types.Var:
			b.dyn = append(b.dyn, dynSite{caller: n, call: call})
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
					b.iface = append(b.iface, ifaceSite{
						caller: n, call: call, iface: iface, method: f.Sel.Name,
					})
					return
				}
				fn := sel.Obj().(*types.Func)
				// Resolve to the concrete receiver's own declaration when
				// the method is promoted from an embedded field.
				b.addEdge(n, call.Pos(), b.funcNode(fn), "static")
				b.recordArgFlows(n, call, fn)
				return
			case types.FieldVal:
				b.dyn = append(b.dyn, dynSite{caller: n, call: call})
				return
			}
			return
		}
		// Package-qualified.
		switch obj := info.Uses[f.Sel].(type) {
		case *types.Func:
			b.addEdge(n, call.Pos(), b.funcNode(obj), "static")
			b.recordArgFlows(n, call, obj)
			if isIterPull(obj) && len(call.Args) == 1 {
				b.dyn = append(b.dyn, dynSite{caller: n, call: call, coroutine: true})
			}
			return
		case *types.Var:
			b.dyn = append(b.dyn, dynSite{caller: n, call: call})
			return
		}
	default:
		// Index expressions, call results, type assertions: resolve by
		// signature against every stored function value.
		b.dyn = append(b.dyn, dynSite{caller: n, call: call})
	}
}

// recordArgFlows flows func-valued arguments into the callee's parameters.
func (b *graphBuilder) recordArgFlows(n *CGNode, call *ast.CallExpr, callee *types.Func) {
	if callee == nil {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		j := i
		if sig.Variadic() && j >= params.Len()-1 {
			j = params.Len() - 1
		}
		if j < 0 || j >= params.Len() {
			continue
		}
		b.flowInto(n, params.At(j), arg)
	}
}

// recordFlow handles one lhs = rhs pair.
func (b *graphBuilder) recordFlow(n *CGNode, lhs, rhs ast.Expr) {
	if !isFuncValued(n.Pkg.Info, rhs) {
		return
	}
	loc := b.lhsVar(n, lhs)
	if loc == nil {
		return
	}
	b.flowInto(n, loc, rhs)
}

// recordCompositeFlow flows func-valued struct-literal elements into their
// field locations.
func (b *graphBuilder) recordCompositeFlow(n *CGNode, cl *ast.CompositeLit) {
	info := n.Pkg.Info
	t := info.Types[cl].Type
	if t == nil {
		return
	}
	st, ok := deref(t).Underlying().(*types.Struct)
	if !ok {
		// Slice/map/array literals: register func values so the
		// signature-match fallback can still see them.
		for _, el := range cl.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			b.registerValue(n, el)
		}
		return
	}
	for i, el := range cl.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			if fv, ok := info.Uses[key].(*types.Var); ok && isFuncValued(info, kv.Value) {
				b.flowInto(n, fv, kv.Value)
			}
			continue
		}
		if i < st.NumFields() && isFuncValued(info, el) {
			b.flowInto(n, st.Field(i), el)
		}
	}
}

// lhsVar resolves an assignment target to its storage location variable:
// plain variables, struct fields, and (approximately) elements of indexed
// containers, which conflate with the container variable.
func (b *graphBuilder) lhsVar(n *CGNode, e ast.Expr) *types.Var {
	info := n.Pkg.Info
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if x.Name == "_" {
				return nil
			}
			if v, ok := info.Defs[x].(*types.Var); ok {
				return v
			}
			v, _ := info.Uses[x].(*types.Var)
			return v
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				return sel.Obj().(*types.Var)
			}
			v, _ := info.Uses[x.Sel].(*types.Var)
			return v
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// flowInto adds the function values rhs may evaluate to into loc's set, or
// a subset edge when rhs reads another location.
func (b *graphBuilder) flowInto(n *CGNode, loc *types.Var, rhs ast.Expr) {
	info := n.Pkg.Info
	rhs = unparen(rhs)
	set := b.flowFor(loc)
	switch r := rhs.(type) {
	case *ast.FuncLit:
		// The literal node exists by the time flows are solved (walkNode
		// creates it during the same inspection); look it up lazily via a
		// thunk entry keyed by the literal.
		if lit := b.g.byLit[r]; lit != nil {
			b.addValue(set, lit, info.Types[r].Type)
		} else {
			// Literal visited after this flow in the same walk: defer by
			// re-resolving in solveFlows.
			b.pendingLits = append(b.pendingLits, pendingLit{loc: loc, lit: r, typ: info.Types[r].Type})
		}
	case *ast.Ident:
		switch obj := info.Uses[r].(type) {
		case *types.Func:
			b.addValue(set, b.funcNode(obj), obj.Type())
		case *types.Var:
			b.flowFor(obj).succs = append(b.flowFor(obj).succs, loc)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[r]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				// Method value: the bound method is the stored function.
				b.addValue(set, b.funcNode(sel.Obj().(*types.Func)), sel.Type())
			case types.FieldVal:
				fv := sel.Obj().(*types.Var)
				b.flowFor(fv).succs = append(b.flowFor(fv).succs, loc)
			}
			return
		}
		switch obj := info.Uses[r.Sel].(type) {
		case *types.Func:
			b.addValue(set, b.funcNode(obj), obj.Type())
		case *types.Var:
			b.flowFor(obj).succs = append(b.flowFor(obj).succs, loc)
		}
	}
}

type pendingLit struct {
	loc *types.Var
	lit *ast.FuncLit
	typ types.Type
}

func (b *graphBuilder) flowFor(v *types.Var) *flowSet {
	s, ok := b.flows[v]
	if !ok {
		s = &flowSet{values: make(map[*CGNode]bool)}
		b.flows[v] = s
	}
	return s
}

func (b *graphBuilder) addValue(set *flowSet, n *CGNode, typ types.Type) {
	set.values[n] = true
	b.noteValue(n, typ)
}

// registerValue adds a func value to the global stored-value inventory
// without binding it to a location (slice/map literal elements).
func (b *graphBuilder) registerValue(n *CGNode, e ast.Expr) {
	info := n.Pkg.Info
	e = unparen(e)
	switch r := e.(type) {
	case *ast.FuncLit:
		if lit := b.g.byLit[r]; lit != nil {
			b.noteValue(lit, info.Types[r].Type)
		} else {
			b.pendingLits = append(b.pendingLits, pendingLit{lit: r, typ: info.Types[r].Type})
		}
	case *ast.Ident:
		if fn, ok := info.Uses[r].(*types.Func); ok {
			b.noteValue(b.funcNode(fn), fn.Type())
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[r]; ok && sel.Kind() == types.MethodVal {
			b.noteValue(b.funcNode(sel.Obj().(*types.Func)), sel.Type())
		} else if fn, ok := info.Uses[r.Sel].(*types.Func); ok {
			b.noteValue(b.funcNode(fn), fn.Type())
		}
	}
}

func (b *graphBuilder) noteValue(n *CGNode, typ types.Type) {
	if b.allSeen == nil {
		b.allSeen = make(map[*CGNode]bool)
	}
	if b.allSeen[n] {
		return
	}
	b.allSeen[n] = true
	b.allVals = append(b.allVals, n)
	if typ != nil {
		if sig, ok := typ.Underlying().(*types.Signature); ok {
			b.valueSig[n] = sig
		}
	}
}

// solveFlows resolves deferred literals, then propagates value sets along
// subset edges to a fixpoint.
func (b *graphBuilder) solveFlows() {
	for _, p := range b.pendingLits {
		lit := b.g.byLit[p.lit]
		if lit == nil {
			continue
		}
		if p.loc != nil {
			b.addValue(b.flowFor(p.loc), lit, p.typ)
		} else {
			b.noteValue(lit, p.typ)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, set := range b.flows { //simlint:ordered monotone set-union fixpoint; the final sets are identical in any visit order
			for _, succ := range set.succs {
				dst := b.flowFor(succ)
				for v := range set.values { //simlint:ordered set union is commutative
					if !dst.values[v] {
						dst.values[v] = true
						changed = true
					}
				}
			}
		}
	}
}

// resolveDynamic turns the recorded dynamic and interface call sites into
// edges.
func (b *graphBuilder) resolveDynamic() {
	for _, site := range b.iface {
		for _, t := range b.concrete {
			ptr := types.NewPointer(t)
			if !types.Implements(t, site.iface) && !types.Implements(ptr, site.iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, t.(*types.Named).Obj().Pkg(), site.method)
			if fn, ok := obj.(*types.Func); ok {
				b.addEdge(site.caller, site.call.Pos(), b.funcNode(fn), "interface")
				b.recordArgFlows(site.caller, site.call, fn)
			}
		}
	}
	for _, site := range b.dyn {
		fun, kind := site.call.Fun, "funcvalue"
		if site.coroutine {
			fun, kind = site.call.Args[0], "coroutine"
		}
		for _, callee := range b.resolveExpr(site.caller, unparen(fun)) {
			b.addEdge(site.caller, site.call.Pos(), callee, kind)
		}
	}
}

// resolveExpr returns the function values a call-through expression may
// hold: the flow set of the variable or field it reads, falling back to
// matching every stored value by signature.
func (b *graphBuilder) resolveExpr(n *CGNode, e ast.Expr) []*CGNode {
	info := n.Pkg.Info
	var set map[*CGNode]bool
	switch x := e.(type) {
	case *ast.FuncLit:
		if lit := b.g.byLit[x]; lit != nil {
			return []*CGNode{lit}
		}
		return nil
	case *ast.Ident:
		switch obj := info.Uses[x].(type) {
		case *types.Func:
			return []*CGNode{b.funcNode(obj)}
		case *types.Var:
			if s, ok := b.flows[obj]; ok {
				set = s.values
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			switch sel.Kind() {
			case types.FieldVal:
				if s, ok := b.flows[sel.Obj().(*types.Var)]; ok {
					set = s.values
				}
			case types.MethodVal:
				return []*CGNode{b.funcNode(sel.Obj().(*types.Func))}
			}
		} else {
			switch obj := info.Uses[x.Sel].(type) {
			case *types.Func:
				return []*CGNode{b.funcNode(obj)}
			case *types.Var:
				if s, ok := b.flows[obj]; ok {
					set = s.values
				}
			}
		}
	}
	if set == nil {
		// Fallback: every stored value whose signature matches the call.
		sig, ok := info.Types[e].Type.Underlying().(*types.Signature)
		if !ok {
			return nil
		}
		var out []*CGNode
		for _, v := range b.allVals {
			if vs := b.valueSig[v]; vs != nil && types.Identical(vs, sig) {
				out = append(out, v)
			}
		}
		return out
	}
	out := make([]*CGNode, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Reachable computes the set of nodes reachable from roots, mapping each
// reached node to its BFS parent edge for path reconstruction.
func (g *CallGraph) Reachable(roots []*CGNode) map[*CGNode]*CGNode {
	parent := make(map[*CGNode]*CGNode, len(roots))
	queue := make([]*CGNode, 0, len(roots))
	for _, r := range roots {
		if _, ok := parent[r]; !ok {
			parent[r] = nil
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if _, ok := parent[e.Callee]; !ok {
				parent[e.Callee] = n
				queue = append(queue, e.Callee)
			}
		}
	}
	return parent
}

// Path reconstructs the root-to-node call chain from a Reachable result,
// as node names.
func Path(parent map[*CGNode]*CGNode, n *CGNode) []string {
	var rev []string
	for cur := n; cur != nil; cur = parent[cur] {
		rev = append(rev, cur.Name)
		if parent[cur] == nil {
			break
		}
	}
	out := make([]string, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// pathString renders a call chain for a diagnostic, eliding the middle of
// long chains.
func pathString(chain []string) string {
	if len(chain) > 5 {
		head := chain[:2]
		tail := chain[len(chain)-2:]
		chain = append(append(append([]string{}, head...), "…"), tail...)
	}
	return strings.Join(chain, " → ")
}

// shortFuncName renders a function name compactly: pkg.Func for package
// functions, (pkg.Recv).Method / (*pkg.Recv).Method for methods.
func shortFuncName(fn *types.Func) string {
	pkg := fn.Pkg()
	pkgName := ""
	if pkg != nil {
		pkgName = pkg.Name() + "."
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkgName + fn.Name()
	}
	recv := sig.Recv().Type()
	star := ""
	if p, ok := recv.(*types.Pointer); ok {
		star = "*"
		recv = p.Elem()
	}
	recvName := types.TypeString(recv, func(*types.Package) string { return "" })
	return fmt.Sprintf("(%s%s%s).%s", star, pkgName, recvName, fn.Name())
}

// isIterPull reports whether fn is iter.Pull or iter.Pull2.
func isIterPull(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "iter" &&
		(fn.Name() == "Pull" || fn.Name() == "Pull2")
}

// isFuncValued reports whether the expression has function type.
func isFuncValued(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, ok = tv.Type.Underlying().(*types.Signature)
	return ok
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
