// Firing and non-firing cases for the goleak analyzer.
package goleak

import "sync"

// fires: raw goroutines and bare channel plumbing.
func fires() {
	ch := make(chan int)    // want `make\(chan\)`
	go func() { ch <- 1 }() // want `go statement` `channel send`
	<-ch                    // want `channel receive`
	close(ch)               // want `close of channel`
}

// firesSelect: the runtime picks among ready cases pseudo-randomly.
func firesSelect(a, b chan int) {
	select { // want `select`
	case <-a: // want `channel receive`
	case <-b: // want `channel receive`
	}
}

// firesRangeChan: draining a channel is still channel plumbing.
func firesRangeChan(ch chan int) {
	for range ch { // want `range over channel`
	}
}

// firesSync: host synchronisation primitives.
func firesSync() {
	var mu sync.Mutex // want `sync.Mutex`
	mu.Lock()
	defer mu.Unlock()
	var wg sync.WaitGroup // want `sync.WaitGroup`
	wg.Wait()
	var once sync.Once // want `sync.Once`
	once.Do(func() {})
}

// okEngineStyle: plain sequential code — what the deterministic core
// is supposed to look like — produces nothing.
func okEngineStyle(events []func()) {
	for _, ev := range events {
		ev()
	}
}

// okAllowed: the pdes barrier's channels carry reasoned allows like
// this one.
func okAllowed() chan struct{} {
	//lint:allow goleak(test fixture mirroring a pdes barrier channel)
	return make(chan struct{})
}
