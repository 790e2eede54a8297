package nested

// HashJoiner is an incremental hash equi-join. Unlike Relation.Join, which
// needs both inputs fully materialized, a HashJoiner separates the two
// phases so a streaming evaluator can hash the build side as its tuples
// arrive and probe with the other side's tuples as they arrive. The build
// side is chosen by the caller (typically the side with the smaller
// estimated cardinality when actual sizes are not yet known).
//
// With no conditions the join degenerates to the cartesian product: every
// build tuple matches every probe tuple. Tuples with a null value in any
// condition attribute never join, matching Relation.Join.
//
// A HashJoiner is not safe for concurrent use; callers serialize Build and
// Probe (Probe is only meaningful once the build side is exhausted).
type HashJoiner struct {
	conds      []EqCond
	buildLeft  bool
	buildAttrs []string
	probeAttrs []string
	// table maps a join key to its bucket's index in buckets, so probe
	// lookups via string(buf) stay allocation-free, appends to a bucket do
	// not rewrite the map entry, and the buckets share one growing slice.
	table      map[string]int32
	buckets    []joinBucket
	buildCount int
	// out builds the result tuples: tuples flowing through a plan
	// overwhelmingly share name arrays, so the result tuples of a join
	// share one concatenated names slice too.
	out Concatenator
}

type joinBucket struct {
	rows []Tuple
}

// NewHashJoiner creates a joiner for the given conditions. buildLeft
// selects which operand is hashed: true hashes the left (EqCond.Left)
// side, false the right. Probe results are always concatenated in
// left-then-right attribute order regardless of orientation.
func NewHashJoiner(conds []EqCond, buildLeft bool) *HashJoiner {
	buildAttrs := make([]string, len(conds))
	probeAttrs := make([]string, len(conds))
	for i, c := range conds {
		if buildLeft {
			buildAttrs[i] = c.Left
			probeAttrs[i] = c.Right
		} else {
			buildAttrs[i] = c.Right
			probeAttrs[i] = c.Left
		}
	}
	return &HashJoiner{
		conds:      conds,
		buildLeft:  buildLeft,
		buildAttrs: buildAttrs,
		probeAttrs: probeAttrs,
		table:      make(map[string]int32),
	}
}

// KeepOnly makes the join build its tuples with the given attributes only
// (nil keeps all); call it before probing.
func (h *HashJoiner) KeepOnly(cols Columns) { h.out.Keep = cols }

// BuildLeft reports which side is hashed.
func (h *HashJoiner) BuildLeft() bool { return h.buildLeft }

// BuildSize returns the number of tuples hashed so far.
func (h *HashJoiner) BuildSize() int { return h.buildCount }

// Build adds one build-side tuple to the hash table.
func (h *HashJoiner) Build(t Tuple) error {
	kb := getKeyBuf()
	k, null, err := appendJoinKey(*kb, t, h.buildAttrs)
	*kb = k
	if err != nil || null {
		putKeyBuf(kb)
		return err // nulls never join
	}
	i, ok := h.table[string(k)]
	if !ok {
		i = int32(len(h.buckets))
		h.buckets = append(h.buckets, joinBucket{})
		h.table[string(k)] = i
	}
	h.buckets[i].rows = append(h.buckets[i].rows, t)
	h.buildCount++
	putKeyBuf(kb)
	return nil
}

// Probe matches one probe-side tuple against the hash table, returning the
// joined tuples (left concatenated with right) in build-insertion order.
func (h *HashJoiner) Probe(t Tuple) ([]Tuple, error) {
	return h.ProbeAppend(t, nil)
}

// ProbeAppend is Probe appending the joined tuples to dst, so a streaming
// caller can reuse one output buffer across a batch of probes.
func (h *HashJoiner) ProbeAppend(t Tuple, dst []Tuple) ([]Tuple, error) {
	kb := getKeyBuf()
	k, null, err := appendJoinKey(*kb, t, h.probeAttrs)
	*kb = k
	if err != nil || null {
		putKeyBuf(kb)
		return dst, err
	}
	i, ok := h.table[string(k)]
	putKeyBuf(kb)
	if !ok {
		return dst, nil
	}
	for _, u := range h.buckets[i].rows {
		left, right := t, u
		if h.buildLeft {
			left, right = u, t
		}
		joined, err := h.out.Concat(left, right)
		if err != nil {
			return dst, err
		}
		dst = append(dst, joined)
	}
	return dst, nil
}
