package nested

import "sync"

// keyBufPool recycles the byte buffers used to render canonical tuple and
// value keys. Key construction dominates allocation in set-semantics
// operators (Insert dedup, hash joins, distinct), so buffers are pooled and
// reset to zero length before being returned.
var keyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256)
		return &b
	},
}

func getKeyBuf() *[]byte { return keyBufPool.Get().(*[]byte) }

// putKeyBuf zeroes the buffer, truncates it (keeping grown capacity) and
// returns it to the pool. Callers must not retain aliases of the buffer
// after Put: the zeroing makes a read through one see zeros instead of a
// plausible old key, so a use-after-Put fails tests rather than passing by
// luck. This is the pool's only Put site, so neither step can be forgotten
// at a call site.
func putKeyBuf(b *[]byte) {
	clear(*b)
	*b = (*b)[:0]
	keyBufPool.Put(b)
}
