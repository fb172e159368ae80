package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
)

// SharedState flags package-level variables in internal/sim and
// internal/memsys. Concurrent runs in one process — the harness's -j
// worker pool, slipsimd's workers — each own an Engine and a System, so
// simulation state is per-run by construction; a package-level variable
// is the one way state leaks across them. Move it into per-run state,
// make it a constant, or justify it with
// //simlint:ignore sharedstate <reason>.
var SharedState = &Analyzer{
	Name:      "sharedstate",
	Doc:       "flag package-level mutable state in the simulation engine and memory system",
	AppliesTo: simStatePath,
	Run:       runSharedState,
}

func runSharedState(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					p.Report(name.Pos(), fmt.Sprintf(
						"package-level mutable state %q: concurrent runs in one process would share it; move it into per-run state, make it constant, or annotate //simlint:ignore sharedstate <reason>",
						name.Name))
				}
			}
		}
	}
}
