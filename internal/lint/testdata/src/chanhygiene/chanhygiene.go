// Package chanhygiene is the chanhygiene analyzer fixture: unbounded
// goroutine fan-out and unguarded channel sends, plus the bounded patterns
// the evaluation packages actually use.
package chanhygiene

import "sync"

func fetch(string) {}

// Fan-out proportional to the input: flagged.
func launchPerItem(urls []string) {
	for _, u := range urls {
		go fetch(u) // want `unbounded goroutine launch`
	}
}

// A counted loop over len(data) is the same fan-out in disguise: flagged.
func launchPerIndex(urls []string) {
	for i := 0; i < len(urls); i++ {
		go fetch(urls[i]) // want `unbounded goroutine launch`
	}
}

// A semaphore bounds the fan-out: clean.
func launchWithSemaphore(urls []string, sem chan struct{}) {
	for _, u := range urls {
		sem <- struct{}{}
		go func(u string) {
			defer func() { <-sem }()
			fetch(u)
		}(u)
	}
}

// A fixed-size worker pool is the canonical bounded pattern: clean.
func workerPool(urls []string, workers int) {
	jobs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range jobs {
				fetch(u)
			}
		}()
	}
	for _, u := range urls {
		jobs <- u
	}
	close(jobs)
	wg.Wait()
}

// An unguarded loop send on an unbuffered channel deadlocks when the
// consumer stops early: flagged.
func unguardedSend(items []int) <-chan int {
	ch := make(chan int)
	go func() {
		for _, v := range items {
			ch <- v // want `unguarded send on unbuffered channel "ch"`
		}
		close(ch)
	}()
	return ch
}

// The select-guarded form: clean.
func guardedSend(items []int, done <-chan struct{}) <-chan int {
	ch := make(chan int)
	go func() {
		defer close(ch)
		for _, v := range items {
			select {
			case ch <- v:
			case <-done:
				return
			}
		}
	}()
	return ch
}

// Sends on buffered channels are bounded by construction: clean.
func bufferedSend(items []int) <-chan int {
	ch := make(chan int, len(items))
	for _, v := range items {
		ch <- v
	}
	close(ch)
	return ch
}
