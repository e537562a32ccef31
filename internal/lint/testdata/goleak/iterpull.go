package goleak

import "iter"

// firesPull: a coroutine started outside Engine.Spawn switches control
// behind the engine's back.
func firesPull(seq iter.Seq[int]) int {
	next, stop := iter.Pull(seq) // want `iter.Pull`
	defer stop()
	v, _ := next()
	return v
}

// firesPull2: the two-value form is the same mechanism.
func firesPull2(seq iter.Seq2[int, int]) {
	next, stop := iter.Pull2[int, int](seq) // want `iter.Pull2`
	defer stop()
	next()
}

// okRange: ranging over an iterator is a plain call sequence on the
// caller's stack, not a coroutine.
func okRange(seq iter.Seq[int]) (sum int) {
	for v := range seq {
		sum += v
	}
	return sum
}

// okAllowedPull: the engine's proc coroutine carries a reasoned allow
// like this one.
func okAllowedPull(seq iter.Seq[int]) func() (int, bool) {
	//lint:allow goleak(test fixture mirroring the engine's proc coroutine)
	next, _ := iter.Pull(seq)
	return next
}
