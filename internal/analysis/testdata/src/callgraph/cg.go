// Package callgraph is the call-graph builder's unit-test fixture: one
// example each of a static call, interface dispatch, a stored closure
// called later, a method value called through a variable, and a
// coroutine body handed to iter.Pull.
package callgraph

import "iter"

type Doer interface{ Do() }

type Impl struct{}

func (Impl) Do() {}

type Box struct{ fn func() }

func target() {}

func Static() { target() }

func Iface(d Doer) { d.Do() }

func StoreClosure(b *Box) {
	x := 1
	b.fn = func() { _ = x }
}

func CallStored(b *Box) { b.fn() }

func CallMethodValue() {
	var i Impl
	f := i.Do
	f()
}

type Gen struct{}

func (Gen) Body(yield func(int) bool) { yield(1) }

func Coroutine(g Gen) {
	next, stop := iter.Pull(g.Body)
	defer stop()
	next()
}
