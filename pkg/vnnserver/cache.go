package vnnserver

import (
	"context"

	"repro/pkg/vnn"
)

// Cache is the fingerprint-keyed LRU cache of compiled networks with
// singleflight semantics: N concurrent requests for the same fingerprint
// trigger exactly one vnn.Compile — the first requester compiles, the
// rest wait on the same entry and share the resulting CompiledNetwork
// (which is immutable and safe for concurrent queries). Failed compiles
// are not cached; the next request retries. Eviction is strict LRU over
// completed entries (see lru); Bytes accounts
// vnn.CompiledNetwork.SizeBytes. Peek, Import, Contains, Keys, Len and
// Stats come from lru with K = string (the workload fingerprint) and
// V = *vnn.CompiledNetwork.
type Cache struct {
	*lru[string, *vnn.CompiledNetwork]
}

// NewCache builds a cache holding at most capacity compiled networks
// (<= 0 means defaultCacheEntries).
func NewCache(capacity int) *Cache {
	return &Cache{newLRU[string](capacity, (*vnn.CompiledNetwork).SizeBytes)}
}

// GetOrCompile returns the compiled network cached under key, compiling
// it via compile on a miss. The bool reports whether the call was a cache
// hit (true for every waiter that joined an in-flight compile — the
// compile they did NOT perform is exactly the point). ctx bounds only
// this caller's wait: a waiter whose context fires stops waiting, but the
// in-flight compile continues for everyone else — the caller owning the
// compile runs it to completion under whatever context compile itself
// uses (the server passes its lifetime context, so only drain interrupts
// a shared compile, never one impatient client).
func (c *Cache) GetOrCompile(ctx context.Context, key string, compile func() (*vnn.CompiledNetwork, error)) (*vnn.CompiledNetwork, bool, error) {
	return c.getOrLoad(ctx, key, compile)
}
