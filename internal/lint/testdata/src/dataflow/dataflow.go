// Package dataflow is a fixture for the CFG and escape-lattice unit
// tests. The function bodies are shapes, not behavior.
package dataflow

func sink(...any) {}

func ifElse(c bool) int {
	x := 1
	if c {
		x = 2
	} else {
		x = 3
	}
	return x
}

func loop(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s = s + i
	}
	return s
}

func earlyReturn(c bool) int {
	if c {
		return 1
	}
	sink(c)
	return 2
}

func deferred() {
	defer sink(1)
	defer sink(2)
	sink(3)
}

func fallthroughSwitch(n int) int {
	x := 0
	switch n {
	case 0:
		x = 1
		fallthrough
	case 1:
		x = x + 10
	default:
		x = -1
	}
	return x
}

func rangeLoop(items []int) int {
	total := 0
	for _, v := range items {
		total += v
	}
	return total
}

func gotoLabel(n int) int {
	i := 0
again:
	i++
	if i < n {
		goto again
	}
	return i
}

type box struct{ v *int }

func escLocal() int {
	x := 42
	y := x
	return y
}

func escReturned() *int {
	x := 42
	p := &x
	return p
}

func escStoredLocal() int {
	x := 42
	b := box{}
	b.v = &x
	return *b.v
}

func escStoredIntoParam(b *box) {
	x := 42
	b.v = &x
}

func escGoroutine() {
	x := 42
	go func() { sink(x) }()
}

func escLocalClosure() int {
	x := 42
	f := func() int { return x }
	return f()
}
