package exec

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"scanshare/internal/heap"
	"scanshare/internal/record"
)

// The page kernel is the aggregation under the Aggregate operator and the
// GroupByConsumer, private and shared. It folds a batch of rows at a time —
// a page, or one pulled tuple — in four stages:
//
//   - decode: each column the aggregation reads, once, into a typed vector
//     (record.Vectors, filled column by column from the page);
//   - select: under an opaque predicate, the page's columns are decoded
//     once, each row is made a tuple from them for the predicate, and the
//     batch keeps the rows it accepts;
//   - group ids: each row's group key maps to a dense group id. When every
//     key column is dictionary-coded on the page, a row's ids come from a
//     table indexed by its codes, and the index is probed once per
//     combination of codes the page holds; otherwise, checking the
//     previous row's key first, from an open-addressing table on the key
//     packed into a uint64 when it fits, and from a map on the key's
//     encoding only when it does not;
//   - fold: one loop per aggregate over the batch.
//
// Groups are told apart by the encoding of their key values (appendKey), not
// by the values: -0 and +0, and NaNs of different bits, are different groups.
// Each group takes its rows in row order, so a float sum adds exactly what
// the tuple-at-a-time fold added, in the same order.

// aggShape is an aggregation compiled against the kinds of its input.
type aggShape struct {
	schema  *record.Schema // the input's fields
	groupBy []int
	ops     []aggOp        // one per aggregate
	cols    record.Columns // what the batch decodes: GroupBy and the inputs of the non-COUNT aggregates
	// err is what folding the first row fails with — an ordinal out of
	// range, an unknown aggregate — in the order the tuple loop met them.
	err error
}

// aggOp is one aggregate compiled: its function and the ordinal and kind of
// its input (none for COUNT).
type aggOp struct {
	kind AggKind
	ord  int
	in   record.Kind
}

// compileShape compiles groupBy and aggs over schema. It does not fail: a
// shape the input cannot satisfy keeps its error for the first folded row,
// which is when the tuple loop met it.
func compileShape(schema *record.Schema, groupBy []int, aggs []AggSpec) *aggShape {
	sh := &aggShape{schema: schema, groupBy: groupBy, ops: make([]aggOp, len(aggs))}
	sh.cols, _ = record.SelectColumns(schema) // no ordinals: cannot fail
	width := schema.NumFields()
	for _, ord := range groupBy {
		if ord < 0 || ord >= width {
			sh.err = fmt.Errorf("exec: group-by ordinal %d out of range", ord)
			return sh
		}
		sh.cols = sh.cols.With(ord)
	}
	for i, spec := range aggs {
		op := aggOp{kind: spec.Kind, ord: spec.Ordinal}
		if spec.Kind != AggCount {
			switch {
			case spec.Ordinal < 0 || spec.Ordinal >= width:
				sh.err = fmt.Errorf("exec: aggregate ordinal %d out of range", spec.Ordinal)
			case spec.Kind < AggCount || spec.Kind > AggMax:
				sh.err = fmt.Errorf("exec: unknown aggregate %v", spec.Kind)
			}
			if sh.err != nil {
				return sh
			}
			op.in = schema.Field(spec.Ordinal).Kind
			sh.cols = sh.cols.With(spec.Ordinal)
		}
		sh.ops[i] = op
	}
	return sh
}

// keyCol is one group-by column of the current batch: its values, or a
// coded varchar's codes and dictionary.
type keyCol struct {
	kind  record.Kind
	i     []int64
	f     []float64
	s     []string
	codes []uint8
	dict  []string
}

// str returns row r of a varchar key column.
func (c *keyCol) str(r int) string {
	if c.codes != nil {
		return c.dict[c.codes[r]]
	}
	return c.s[r]
}

// packedLen is how many bytes of a key fit beside the length byte of a
// packed key.
const packedLen = 7

// notPacked marks a row whose key does not pack. No packed key of a
// varchar, or of several columns, has it: their length byte is at most 7.
const notPacked = ^uint64(0)

// packKeys computes the group key of every row of the batch into
// k.packed, a column at a time: packed into a uint64 when it fits, or
// notPacked. The same key always takes the same form, and the packed form is
// injective for the shape's kinds:
//   - one fixed-width column packs its 8 bytes (and always packs);
//   - one varchar of at most 7 bytes packs them beside its length;
//   - several columns pack their appendKey encoding when it is at most 7
//     bytes long, beside the length.
//
// A key that does not pack is its bytes — the varchar's, or the encoding —
// which keyOf builds.
func (k *kernel) packKeys(n int) {
	if len(k.packed) < n {
		k.packed = make([]uint64, len(k.rows))
	}
	pk := k.packed[:n]
	cols := k.keys
	if len(cols) == 1 {
		switch c := &cols[0]; c.kind {
		case record.KindFloat64:
			for r, x := range c.f[:n] {
				pk[r] = math.Float64bits(x)
			}
		case record.KindString:
			for r, s := range c.s[:n] {
				pk[r] = notPacked
				if len(s) <= packedLen {
					pk[r] = packString(s)
				}
			}
		default:
			for r, x := range c.i[:n] {
				pk[r] = uint64(x)
			}
		}
		return
	}
	// Several columns: the encoding, packed while it fits. A fixed-width
	// value, kind and 8 bytes, never fits beside anything.
	for _, c := range cols {
		if c.kind != record.KindString {
			for r := range pk {
				pk[r] = notPacked
			}
			return
		}
	}
	for r := range pk {
		p := uint64(0)
		for j := range cols {
			p = packOn(p, cols[j].s[r])
		}
		pk[r] = p
	}
}

// packOn appends the encoding of varchar s — its kind, its bytes and a 0 —
// to p, a key packed so far whose length byte counts what it holds:
// notPacked once the key no longer fits.
func packOn(p uint64, s string) uint64 {
	at := int(p >> 56)
	if p == notPacked || at+len(s)+2 > packedLen {
		return notPacked
	}
	p |= uint64(record.KindString) << (8 * at & 63)
	for i := 0; i < len(s); i++ {
		p |= uint64(s[i]) << (8 * (at + 1 + i) & 63)
	}
	return p&(1<<56-1) | uint64(at+len(s)+2)<<56
}

// keyOf returns row r's key in the form packKeys gives it: packed, wide ==
// nil; or, when it does not pack, its bytes, built in buf[:0].
func (k *kernel) keyOf(r int, buf []byte) (packed uint64, wide []byte) {
	switch {
	case len(k.keys) == 0:
		return 0, nil // ungrouped: one key
	case len(k.keys) == 1:
		switch c := &k.keys[0]; c.kind {
		case record.KindFloat64:
			return math.Float64bits(c.f[r]), nil
		case record.KindString:
			s := c.str(r)
			if len(s) > packedLen {
				return 0, append(buf[:0], s...)
			}
			return packString(s), nil
		default:
			return uint64(c.i[r]), nil
		}
	}
	p := uint64(0)
	for j := range k.keys {
		if k.keys[j].kind != record.KindString {
			p = notPacked
			break
		}
		p = packOn(p, k.keys[j].str(r))
	}
	if p != notPacked {
		return p, nil
	}
	buf = buf[:0]
	for j := range k.keys {
		c := &k.keys[j]
		switch c.kind {
		case record.KindFloat64:
			buf = appendKey(buf, record.Float64(c.f[r]))
		case record.KindString:
			buf = appendKey(buf, record.String(c.str(r)))
		default:
			buf = appendKey(buf, record.Value{Kind: c.kind, I: c.i[r]})
		}
	}
	return 0, buf
}

// packString packs the at most 7 bytes of s beside their count.
func packString(s string) uint64 {
	p := uint64(len(s)) << 56
	for j := 0; j < len(s); j++ {
		p |= uint64(s[j]) << (8 * j & 63)
	}
	return p
}

// mix64 spreads a packed key over all 64 bits (Fibonacci hashing); the high
// bits are the well-mixed ones.
func mix64(k uint64) uint64 { return k * 0x9E3779B97F4A7C15 }

// u64Index is an open-addressing (linear probing) table from packed keys to
// group ids, kept at most half full.
type u64Index struct {
	slots []u64Slot // a power of two of them
	shift uint      // 64 - log2(len(slots))
	n     int
}

type u64Slot struct {
	key uint64
	id  int32 // group id + 1; 0 is an empty slot
}

func (x *u64Index) find(k uint64) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	mask := len(x.slots) - 1
	for i := int(mix64(k) >> x.shift); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.id == 0 {
			return 0, false
		}
		if s.key == k {
			return s.id - 1, true
		}
	}
}

// insert adds k, which is not in the table, as group id.
func (x *u64Index) insert(k uint64, id int32) {
	if 2*(x.n+1) > len(x.slots) {
		old := x.slots
		size := max(16, 2*len(old))
		x.slots = make([]u64Slot, size)
		x.shift = uint(64 - bits.Len(uint(size-1)))
		x.n = 0
		for _, s := range old {
			if s.id != 0 {
				x.put(s)
			}
		}
	}
	x.put(u64Slot{key: k, id: id + 1})
}

func (x *u64Index) put(s u64Slot) {
	mask := len(x.slots) - 1
	i := int(mix64(s.key) >> x.shift)
	for x.slots[i].id != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = s
	x.n++
}

// keyIndex maps group keys to dense group ids 0, 1, …: packed keys through a
// u64Index, wide ones through a map, the slow path. The map does not map a
// key to its id but to a slot of wideID, which holds it: reset then drops
// the ids and keeps the keys, so that an index reset every page (the shared
// consumer's page-local one) allocates only for a wide key it has never
// seen.
type keyIndex struct {
	n      int32
	packed u64Index
	wide   map[string]int32
	wideID []int32 // by slot: the key's group id, -1 for none since reset
}

func (x *keyIndex) find(packed uint64, wide []byte) (int32, bool) {
	if wide == nil {
		return x.packed.find(packed)
	}
	if slot, ok := x.wide[string(wide)]; ok && x.wideID[slot] >= 0 {
		return x.wideID[slot], true
	}
	return 0, false
}

// add gives a key the index does not hold the next group id.
func (x *keyIndex) add(packed uint64, wide []byte) int32 {
	g := x.n
	x.n++
	if wide == nil {
		x.packed.insert(packed, g)
		return g
	}
	if slot, ok := x.wide[string(wide)]; ok {
		x.wideID[slot] = g
		return g
	}
	if x.wide == nil {
		x.wide = make(map[string]int32)
	}
	x.wide[string(wide)] = int32(len(x.wideID))
	x.wideID = append(x.wideID, g)
	return g
}

// reset empties the index and keeps its storage.
func (x *keyIndex) reset() {
	x.n = 0
	clear(x.packed.slots)
	x.packed.n = 0
	for i := range x.wideID {
		x.wideID[i] = -1
	}
}

// assign sets k.gids[r] to the group id of every row r of k's batch, adding
// the keys the index has not seen; the first row of each new group, in id
// order, is appended to k.fresh.
func (x *keyIndex) assign(k *kernel) {
	n := k.vec.Len()
	gids := k.gids[:n]
	k.gids = gids
	if len(k.keys) == 0 {
		if x.n == 0 {
			x.n = 1
			k.fresh = append(k.fresh, 0)
		}
		clear(gids)
		return
	}
	if k.coded {
		x.assignCoded(k)
		return
	}
	k.packKeys(n)
	lastID := int32(-1)
	var lastPacked uint64
	var lastWide []byte // nil: the last key packed
	buf, spare := k.keyBuf, k.keySpare
	for r := range gids {
		packed, wide := k.packed[r], []byte(nil)
		if packed == notPacked {
			if packed, wide = k.keyOf(r, buf); wide != nil {
				if lastWide != nil && bytes.Equal(wide, lastWide) {
					gids[r] = lastID
					continue
				}
			}
		}
		if wide == nil && lastWide == nil && packed == lastPacked && lastID >= 0 {
			gids[r] = lastID
			continue
		}
		var g int32
		var ok bool
		if wide == nil {
			g, ok = x.packed.find(packed) // inlined: the common case
		} else {
			g, ok = x.find(packed, wide)
		}
		if !ok {
			g = x.add(packed, wide)
			k.fresh = append(k.fresh, int32(r))
		}
		gids[r], lastPacked, lastID, lastWide = g, packed, g, wide
		if wide != nil {
			// The key stays in buf as the last one; the next is built in
			// the other buffer.
			buf, spare = spare, wide
		}
	}
	k.keyBuf, k.keySpare = buf, spare
}

// maxCodeIDs bounds the table of group ids by combination of codes: keys
// whose dictionaries have more combinations than this on a page are packed.
const maxCodeIDs = 4096

// assignCoded is assign over dictionary-coded keys: a row's combination of
// codes indexes k.codeIDs, which holds its group id once a row of the page
// has looked the key up (probe).
func (x *keyIndex) assignCoded(k *kernel) {
	gids, ids := k.gids, k.codeIDs
	switch keys := k.keys; len(keys) {
	case 1:
		for r, c := range keys[0].codes[:len(gids)] {
			g := ids[c]
			if g < 0 {
				g = x.probe(k, r, int(c))
			}
			gids[r] = g
		}
	case 2:
		c0, c1, size1 := keys[0].codes[:len(gids)], keys[1].codes[:len(gids)], len(keys[1].dict)
		for r := range gids {
			c := int(c0[r])*size1 + int(c1[r])
			g := ids[c]
			if g < 0 {
				g = x.probe(k, r, c)
			}
			gids[r] = g
		}
	default:
		for r := range gids {
			c := 0
			for j := range keys {
				c = c*len(keys[j].dict) + int(keys[j].codes[r])
			}
			g := ids[c]
			if g < 0 {
				g = x.probe(k, r, c)
			}
			gids[r] = g
		}
	}
}

// probe looks up the key of row r, the page's first row of code combination
// c, adding it if the index does not hold it, and enters its id in the
// table.
func (x *keyIndex) probe(k *kernel, r, c int) int32 {
	packed, wide := k.keyOf(r, k.keyBuf)
	if wide != nil {
		k.keyBuf = wide // keep the grown buffer
	}
	g, ok := x.find(packed, wide)
	if !ok {
		g = x.add(packed, wide)
		k.fresh = append(k.fresh, int32(r))
	}
	k.codeIDs[c] = g
	return g
}

// aggCell is the running state of one aggregate of one group.
type aggCell struct {
	count int64   // rows folded (SUM keeps none)
	sum   float64 // SUM and AVG
	i     int64   // running MIN or MAX of a bigint or date
	f     float64 // running MIN or MAX of a double
	s     string  // running MIN or MAX of a varchar, owned (cloned into the arena)
}

// groupTable is the state of one aggregation: group ids, the key values of
// each group, and len(aggs) cells per group. The private consumer and the
// Aggregate operator have one; a SharedAggState has one per stripe. The
// zero value with sh set is empty and ready. Not safe for concurrent use.
type groupTable struct {
	sh *aggShape
	keyIndex
	keys  []record.Value // len(groupBy) values per group, owned (cloned)
	cells []aggCell      // len(aggs) cells per group
	arena record.Arena   // what the varchars of keys and cells are cloned into
}

// addGroup appends the key values and the cells of a new group, whose key is
// row r's. The slabs start with room for a few groups.
func (tb *groupTable) addGroup(b *record.Vectors, r int) {
	const room = 8
	nk, na := len(tb.sh.groupBy), len(tb.sh.ops)
	if tb.keys == nil && nk > 0 {
		tb.keys = make([]record.Value, 0, room*nk)
	}
	if tb.cells == nil && na > 0 {
		tb.cells = make([]aggCell, 0, room*na)
	}
	for _, ord := range tb.sh.groupBy {
		v := b.Value(ord, r)
		v.S = tb.arena.Clone(v.S)
		tb.keys = append(tb.keys, v)
	}
	tb.cells = append(tb.cells, make([]aggCell, na)...)
}

// group returns the id of the group with the given key, adding it from row r
// of b if it is new.
func (tb *groupTable) group(packed uint64, wide []byte, b *record.Vectors, r int) int32 {
	g, ok := tb.find(packed, wide)
	if !ok {
		g = tb.add(packed, wide)
		tb.addGroup(b, r)
	}
	return g
}

// fold adds row rows[j] of b to group gids[j] for every j, in order, one
// aggregate at a time.
func (tb *groupTable) fold(b *record.Vectors, rows, gids []int32) {
	na := len(tb.sh.ops)
	rows = rows[:len(gids)]
	for i, op := range tb.sh.ops {
		cells := tb.cells[i:]
		switch {
		case op.kind == AggCount || op.in == record.KindString && (op.kind == AggSum || op.kind == AggAvg):
			// COUNT; and a varchar, which sums as 0.
			for _, g := range gids {
				cells[int(g)*na].count++
			}
		case op.kind == AggSum && op.in == record.KindFloat64:
			xs := b.Float64s(op.ord)
			for j, g := range gids {
				cells[int(g)*na].sum += xs[rows[j]]
			}
		case op.kind == AggSum:
			xs := b.Int64s(op.ord)
			for j, g := range gids {
				cells[int(g)*na].sum += float64(xs[rows[j]])
			}
		case op.kind == AggAvg && op.in == record.KindFloat64:
			xs := b.Float64s(op.ord)
			for j, g := range gids {
				c := &cells[int(g)*na]
				c.sum += xs[rows[j]]
				c.count++
			}
		case op.kind == AggAvg:
			xs := b.Int64s(op.ord)
			for j, g := range gids {
				c := &cells[int(g)*na]
				c.sum += float64(xs[rows[j]])
				c.count++
			}
		case op.in == record.KindFloat64:
			xs := b.Float64s(op.ord)
			less := op.kind == AggMin
			for j, g := range gids {
				c, x := &cells[int(g)*na], xs[rows[j]]
				if c.count == 0 || less && x < c.f || !less && x > c.f {
					c.f = x
				}
				c.count++
			}
		case op.in == record.KindString:
			xs := b.Strings(op.ord)
			less := op.kind == AggMin
			for j, g := range gids {
				c, x := &cells[int(g)*na], xs[rows[j]]
				if c.count == 0 || less && x < c.s || !less && x > c.s {
					c.s = tb.arena.Clone(x)
				}
				c.count++
			}
		default:
			xs := b.Int64s(op.ord)
			less := op.kind == AggMin
			for j, g := range gids {
				c, x := &cells[int(g)*na], xs[rows[j]]
				if c.count == 0 || less && x < c.i || !less && x > c.i {
					c.i = x
				}
				c.count++
			}
		}
	}
}

// row builds the finished result row of group g.
func (tb *groupTable) row(g int) record.Tuple {
	nk, na := len(tb.sh.groupBy), len(tb.sh.ops)
	row := make(record.Tuple, 0, nk+na)
	row = append(row, tb.keys[g*nk:][:nk]...)
	for i, op := range tb.sh.ops {
		c := &tb.cells[g*na+i]
		switch op.kind {
		case AggCount:
			row = append(row, record.Int64(c.count))
		case AggSum:
			row = append(row, record.Float64(c.sum))
		case AggAvg:
			avg := 0.0
			if c.count > 0 {
				avg = c.sum / float64(c.count)
			}
			row = append(row, record.Float64(avg))
		default: // MIN, MAX
			v := record.Value{Kind: op.in}
			switch op.in {
			case record.KindFloat64:
				v.F = c.f
			case record.KindString:
				v.S = c.s
			default:
				v.I = c.i
			}
			row = append(row, v)
		}
	}
	return row
}

// sortedRows finishes the groups of tables — a private table, or the
// stripes of a shared one, whose key sets are disjoint — as rows ordered by
// key encoding. An ungrouped aggregation of no rows yields SQL's one row of
// zeros. A nil table has no groups.
func sortedRows(tables []*groupTable, groupBy []int, aggs []AggSpec) []record.Tuple {
	type ref struct {
		tb       *groupTable
		g        int
		from, to int // the key encoding, in enc
	}
	groups, size := 0, 0
	for _, tb := range tables {
		if tb != nil {
			groups += int(tb.n)
			for _, v := range tb.keys {
				size += keySize(v)
			}
		}
	}
	refs := make([]ref, 0, groups)
	enc := make([]byte, 0, size)
	for _, tb := range tables {
		if tb == nil {
			continue
		}
		nk := len(tb.sh.groupBy)
		for g := 0; g < int(tb.n); g++ {
			from := len(enc)
			for _, v := range tb.keys[g*nk:][:nk] {
				enc = appendKey(enc, v)
			}
			refs = append(refs, ref{tb, g, from, len(enc)})
		}
	}
	slices.SortFunc(refs, func(a, b ref) int { return bytes.Compare(enc[a.from:a.to], enc[b.from:b.to]) })
	results := make([]record.Tuple, 0, max(len(refs), 1))
	for _, r := range refs {
		results = append(results, r.tb.row(r.g))
	}
	if len(results) == 0 && len(groupBy) == 0 {
		// SQL semantics: an ungrouped aggregate over an empty input
		// still yields one row.
		row := record.Tuple{}
		for _, spec := range aggs {
			if spec.Kind == AggCount {
				row = append(row, record.Int64(0))
			} else {
				row = append(row, record.Float64(0))
			}
		}
		results = append(results, row)
	}
	return results
}

// kernel folds batches of one aggregation shape: a page, or one pulled
// tuple, at a time. Its buffers are reused batch after batch, so a warm
// kernel allocates only for new groups (their key values) and for a MIN or
// MAX varchar that replaces the running one.
type kernel struct {
	sh       *aggShape
	pred     func(record.Tuple) bool
	vec      record.Vectors
	scratch  record.Tuple // the predicate's tuple
	keys     []keyCol     // the group-by columns of vec
	packed   []uint64     // each row's key, packed, or notPacked
	coded    bool         // every key column is coded: ids come from codeIDs
	codeIDs  []int32      // group id by combination of codes, -1 for none yet
	rows     []int32      // 0, 1, …: the batch's rows, in order
	gids     []int32      // group id per row
	fresh    []int32      // first row of each group the last assign added
	keyBuf   []byte       // two buffers for wide keys: the current and the last one
	keySpare []byte

	// The shared consumer's page-local group ids, the scratch its stripe
	// bookkeeping is carved from, and the copies of the page's groups'
	// cells it folds into.
	local  keyIndex
	shared []int32
	page   groupTable
}

// init readies k to fold shape sh under pred.
func (k *kernel) init(sh *aggShape, pred func(record.Tuple) bool) {
	*k = kernel{sh: sh, pred: pred, keys: make([]keyCol, len(sh.groupBy)), page: groupTable{sh: sh}}
}

// loadPage fills the batch with the rows of view that the predicate keeps,
// every row without one. A page that fails to decode loads no rows.
func (k *kernel) loadPage(view heap.PageView) error {
	if k.pred == nil {
		k.vec.Reset(k.sh.cols)
		return view.AppendTo(&k.vec)
	}
	k.vec.Reset(view.Columns().Union(k.sh.cols))
	if err := view.AppendTo(&k.vec); err != nil {
		return err
	}
	k.reserve(k.vec.Len())
	keep := k.gids[:0] // free until the group-id stage
	for r := 0; r < k.vec.Len(); r++ {
		k.scratch = k.vec.Row(k.scratch, r)
		if k.pred(k.scratch) {
			keep = append(keep, int32(r))
		}
	}
	k.vec.Keep(keep)
	return nil
}

// loadTuple makes t, a tuple pulled through the operators, a batch of one
// row.
func (k *kernel) loadTuple(t record.Tuple) error {
	s := k.sh.schema
	if len(t) != s.NumFields() {
		return fmt.Errorf("exec: aggregate input of %d values after %d", len(t), s.NumFields())
	}
	for i, v := range t {
		if v.Kind != s.Field(i).Kind {
			return fmt.Errorf("exec: aggregate input value %d is %v after %v", i, v.Kind, s.Field(i).Kind)
		}
	}
	k.vec.Reset(k.sh.cols)
	k.vec.AppendTuple(t)
	return nil
}

// batch readies the loaded batch for the group-id stage: it reports whether
// there are rows to fold (or the shape's error, if there are), and points
// the key columns at the batch.
func (k *kernel) batch() (int, error) {
	n := k.vec.Len()
	if n == 0 {
		return 0, nil
	}
	if k.sh.err != nil {
		return 0, k.sh.err
	}
	// The keys are coded when every one is a varchar coded on the page,
	// and their dictionaries have few enough combinations for a table.
	combos := 1
	for j, ord := range k.sh.groupBy {
		kc := &k.keys[j]
		kc.kind = k.sh.schema.Field(ord).Kind
		kc.codes, kc.dict = nil, nil
		switch kc.kind {
		case record.KindFloat64:
			kc.f = k.vec.Float64s(ord)
		case record.KindString:
			kc.codes, kc.dict = k.vec.Codes(ord)
		default:
			kc.i = k.vec.Int64s(ord)
		}
		if combos *= len(kc.dict); combos > maxCodeIDs {
			combos = 0
		}
	}
	k.coded = combos > 0 && len(k.keys) > 0
	for j, ord := range k.sh.groupBy {
		if kc := &k.keys[j]; kc.kind == record.KindString && !k.coded {
			kc.codes, kc.s = nil, k.vec.Strings(ord)
		}
	}
	k.reserve(n)
	k.fresh = k.fresh[:0]
	if k.coded {
		if cap(k.codeIDs) < combos {
			k.codeIDs = make([]int32, combos)
		}
		k.codeIDs = k.codeIDs[:combos]
		for i := range k.codeIDs {
			k.codeIDs[i] = -1
		}
	}
	return n, nil
}

// reserve makes room in rows and gids for a batch of n rows.
func (k *kernel) reserve(n int) {
	if len(k.rows) >= n {
		return
	}
	// rows, gids, fresh and a small table of code ids share one
	// allocation, with room for a fuller batch and a few new groups.
	const fresh, ids = 16, 64
	size := max(n+n/4, 2*len(k.rows))
	buf := make([]int32, 2*size+fresh+ids)
	k.rows, k.gids, k.fresh = buf[:size:size], buf[size:2*size:2*size], buf[2*size:2*size:2*size+fresh]
	for i := range k.rows {
		k.rows[i] = int32(i)
	}
	if cap(k.codeIDs) <= ids {
		k.codeIDs = buf[2*size+fresh:]
	}
}

// fold folds the loaded batch into tb.
func (k *kernel) fold(tb *groupTable) error {
	n, err := k.batch()
	if n == 0 {
		return err
	}
	tb.assign(k)
	for _, r := range k.fresh {
		tb.addGroup(&k.vec, int(r))
	}
	tb.fold(&k.vec, k.rows[:n], k.gids)
	return nil
}

// foldPage folds the rows of view that the predicate keeps into tb.
func (k *kernel) foldPage(view heap.PageView, tb *groupTable) error {
	err := k.loadPage(view)
	if ferr := k.fold(tb); ferr != nil {
		return ferr
	}
	return err
}
