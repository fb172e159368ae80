// Package sharedstate exercises the shared-state check: package-level
// variables in the engine and memory system are findings, constants are
// not, and //simlint:ignore sharedstate suppresses one with a reason.
package sharedstate

var hits int // want `package-level mutable state "hits"`

// MaxLines is immutable: constants are not shared mutable state.
const MaxLines = 64

var (
	a, b int // want `package-level mutable state "a"` `package-level mutable state "b"`
	_    = MaxLines
)

//simlint:ignore sharedstate fixture: set before any run starts and read-only afterwards
var Debug bool
