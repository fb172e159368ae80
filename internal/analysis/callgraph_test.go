package analysis

import (
	"path/filepath"
	"testing"
)

// loadGraph builds the call graph over the callgraph fixture.
func loadGraph(t *testing.T) *CallGraph {
	t.Helper()
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "callgraph"), "fixtures/callgraph")
	if err != nil {
		t.Fatal(err)
	}
	prog := &Program{Pkgs: []*Package{pkg}, All: loader.Loaded()}
	return prog.callGraph()
}

// wantEdge asserts the graph has an edge from -> to with the given
// resolution kind.
func wantEdge(t *testing.T, g *CallGraph, from, to, kind string) {
	t.Helper()
	n := g.LookupName(from)
	if n == nil {
		t.Fatalf("no node named %q", from)
	}
	for _, e := range n.Out {
		if e.Callee.Name == to {
			if e.Kind != kind {
				t.Errorf("edge %s -> %s has kind %q, want %q", from, to, e.Kind, kind)
			}
			return
		}
	}
	var got []string
	for _, e := range n.Out {
		got = append(got, e.Kind+":"+e.Callee.Name)
	}
	t.Errorf("no edge %s -> %s; out-edges: %v", from, to, got)
}

func TestCallGraphStaticCall(t *testing.T) {
	wantEdge(t, loadGraph(t), "callgraph.Static", "callgraph.target", "static")
}

func TestCallGraphInterfaceDispatch(t *testing.T) {
	wantEdge(t, loadGraph(t), "callgraph.Iface", "(callgraph.Impl).Do", "interface")
}

func TestCallGraphStoredClosure(t *testing.T) {
	// The closure stored into Box.fn by StoreClosure is resolved at the
	// b.fn() call site in CallStored via the field's flow set.
	wantEdge(t, loadGraph(t), "callgraph.CallStored", "callgraph.StoreClosure·func1", "funcvalue")
}

func TestCallGraphMethodValue(t *testing.T) {
	// f := i.Do; f() resolves the bound method through the variable's
	// flow set.
	wantEdge(t, loadGraph(t), "callgraph.CallMethodValue", "(callgraph.Impl).Do", "funcvalue")
}

func TestCallGraphIterPull(t *testing.T) {
	// iter.Pull(g.Body) runs g.Body when next is called: the edge goes
	// from the coroutine's creator to its body, so reachability does not
	// stop at the bodiless stdlib node.
	g := loadGraph(t)
	wantEdge(t, g, "callgraph.Coroutine", "(callgraph.Gen).Body", "coroutine")
	root := g.LookupName("callgraph.Coroutine")
	if _, ok := g.Reachable([]*CGNode{root})[g.LookupName("(callgraph.Gen).Body")]; !ok {
		t.Error("Body not reachable from Coroutine")
	}
}

// TestCallGraphReachable pins BFS reachability and path reconstruction
// over the fixture: target is reached from Static with a two-node chain.
func TestCallGraphReachable(t *testing.T) {
	g := loadGraph(t)
	root := g.LookupName("callgraph.Static")
	tgt := g.LookupName("callgraph.target")
	if root == nil || tgt == nil {
		t.Fatal("fixture nodes missing")
	}
	parent := g.Reachable([]*CGNode{root})
	if _, ok := parent[tgt]; !ok {
		t.Fatal("target not reachable from Static")
	}
	if got := pathString(Path(parent, tgt)); got != "callgraph.Static → callgraph.target" {
		t.Errorf("path = %q", got)
	}
	if other := g.LookupName("callgraph.CallStored"); other != nil {
		if _, ok := parent[other]; ok {
			t.Error("CallStored should not be reachable from Static")
		}
	}
}
