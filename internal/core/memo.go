package core

import (
	"container/list"
	"math"
	"sync"
)

// The compile memo's bounds. Entries covers a serving mix's recurring
// sources with room for the never-repeated texts that arrive between two
// uses of one; source bytes stand in for what an entry retains (a compiled
// tree is a fixed multiple of its source), and a single text over the byte
// bound is compiled without being kept.
const (
	memoMaxEntries     = 256
	memoMaxSourceBytes = 8 << 20
)

// compileMemo maps (declared Opts, normalized; source text) to the compiled
// program, least recently used entries evicted first. Keys compare by full
// equality, never by hash alone, so a collision cannot hand one tenant
// another's program. A *Compiled is immutable once built (its code table is
// guarded by a Once, a function's chunk is published on it atomically, and
// realms keep their inline caches to themselves), so any number of runs
// share one.
type compileMemo struct {
	mu      sync.Mutex
	entries map[memoKey]*list.Element // of *Compiled
	lru     list.List                 // front: most recently used
	bytes   int                       // sum of SourceBytes over entries

	hits, misses, evictions uint64
}

type memoKey struct {
	opts   Opts
	source string
}

// shared is the process-wide memo behind CompileCached.
var shared compileMemo

// CompileCached is Compile behind the process-wide memo: the same source
// under the same options compiles once and every caller shares the result.
// Compile errors are not remembered.
func CompileCached(source string, opts Opts) (*Compiled, error) {
	return shared.compile(source, opts)
}

func (m *compileMemo) compile(source string, opts Opts) (*Compiled, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	// NaN differs from itself: such a key could be stored but never found
	// again, nor deleted on eviction.
	if math.IsNaN(opts.YieldIntervalMs) {
		return Compile(source, opts)
	}
	key := memoKey{opts, source}
	m.mu.Lock()
	if el, ok := m.entries[key]; ok {
		m.lru.MoveToFront(el)
		m.hits++
		m.mu.Unlock()
		return el.Value.(*Compiled), nil
	}
	m.misses++
	m.mu.Unlock()

	// Compile outside the lock: admissions of different sources must not
	// queue behind one another.
	c, err := Compile(source, opts)
	if err != nil || len(source) > memoMaxSourceBytes {
		return c, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		// Another caller compiled the same text meanwhile; share theirs.
		return el.Value.(*Compiled), nil
	}
	if m.entries == nil {
		m.entries = make(map[memoKey]*list.Element)
	}
	m.entries[key] = m.lru.PushFront(c)
	m.bytes += len(source)
	for m.lru.Len() > memoMaxEntries || m.bytes > memoMaxSourceBytes {
		old := m.lru.Remove(m.lru.Back()).(*Compiled)
		delete(m.entries, memoKey{old.declared, old.SourceText})
		m.bytes -= old.SourceBytes
		m.evictions++
	}
	return c, nil
}

// CompileStats are the process-wide compile counters: how often
// CompileCached found its answer, missed, and evicted, and how many
// distinct preludes have been compiled.
type CompileStats struct {
	MemoHits        uint64 `json:"memo_hits"`
	MemoMisses      uint64 `json:"memo_misses"`
	MemoEvictions   uint64 `json:"memo_evictions"`
	PreludeCompiles uint64 `json:"prelude_compiles"`
}

// ReadCompileStats snapshots the counters.
func ReadCompileStats() CompileStats {
	shared.mu.Lock()
	defer shared.mu.Unlock()
	return CompileStats{
		MemoHits:        shared.hits,
		MemoMisses:      shared.misses,
		MemoEvictions:   shared.evictions,
		PreludeCompiles: preludeCompiles.Load(),
	}
}
