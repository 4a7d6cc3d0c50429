package vm

// Branch-edge coverage for the decoded engine — the feedback signal the
// fuzzer (internal/fuzz) steers by. The hook follows the Config.Flight
// pattern exactly: a machine built without a Coverage map pays one nil
// check per taken branch and nothing else; with one armed, every br /
// condbr transition folds (function, from-block, to-block) into a
// fixed-size bucket array.
//
// Edges are recorded by the decoded engine, the only engine production
// runs; the reference interpreter (a test oracle behind
// Config.Reference) records none. Bucket indices are pure functions of
// the function name and static block indices, so coverage is
// bit-identical across runs, machines, and processes — the property the
// fuzzer's deterministic corpus digests rest on.

// CoverSize is the number of buckets in a Coverage map. 8192 buckets
// comfortably hold the few hundred static edges of a corpus program
// with a negligible collision rate, and a map scan stays cheap enough
// to run after every fuzz execution.
const CoverSize = 1 << 13

// Coverage is an edge-count map shared by one or more runs. It is not
// concurrency-safe: give each machine (or fuzz worker) its own.
type Coverage struct {
	counts [CoverSize]uint32
}

// NewCoverage returns an empty coverage map.
func NewCoverage() *Coverage { return &Coverage{} }

// Reset zeroes every bucket.
func (c *Coverage) Reset() {
	for i := range c.counts {
		c.counts[i] = 0
	}
}

// hit folds one taken branch edge into the map. base is the owning
// function's covBase (a hash of its name computed at decode time), from
// and to are static block indices.
func (c *Coverage) hit(base uint32, from, to int32) {
	idx := (base ^ uint32(from)*0x9e3779b1 ^ uint32(to)*0x85ebca77) & (CoverSize - 1)
	c.counts[idx]++
}

// Edges returns the number of distinct buckets hit.
func (c *Coverage) Edges() int {
	n := 0
	for _, v := range c.counts {
		if v != 0 {
			n++
		}
	}
	return n
}

// Hits appends the indices of every hit bucket (ascending) to dst and
// returns it — the per-run edge set the fuzzer merges into its virgin
// map without retaining the whole array.
func (c *Coverage) Hits(dst []int32) []int32 {
	for i, v := range c.counts {
		if v != 0 {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// Digest folds every (bucket, count) pair into an FNV-1a signature.
// Runs with identical control flow produce identical digests.
func (c *Coverage) Digest() uint64 {
	h := uint64(0xcbf29ce484222325)
	step := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * 0x100000001b3
			v >>= 8
		}
	}
	for i, v := range c.counts {
		if v != 0 {
			step(uint64(i))
			step(uint64(v))
		}
	}
	return h
}

// covHash is FNV-1a/32 over the function name — the per-function base
// mixed into every edge index.
func covHash(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return h
}
