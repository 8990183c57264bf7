package exec

import (
	"fmt"

	"scanshare/internal/record"
)

// HashJoin is an equi-join: it materializes the Left (build) input into a
// hash table keyed on LeftOrdinal, then streams the Right (probe) input and
// emits one concatenated tuple (left fields followed by right fields) per
// match.
//
// Joins matter to the scan sharing story because the paper's TPC-H workload
// is full of them: a join's inputs are table scans, and those scans share
// buffer-pool pages with every other scan of the same tables exactly like
// stand-alone scans do. The join itself is pure CPU-side plumbing.
type HashJoin struct {
	Left, Right  Operator
	LeftOrdinal  int
	RightOrdinal int

	table map[string][]record.Tuple
	// pending holds the remaining matches for the current probe tuple.
	pending []record.Tuple
	probe   record.Tuple
	out     record.Tuple
}

// Open opens both inputs; the build happens lazily on the first Next.
func (j *HashJoin) Open(env *Env) error {
	if j.Left == nil || j.Right == nil {
		return fmt.Errorf("exec: HashJoin needs Left and Right")
	}
	if j.LeftOrdinal < 0 || j.RightOrdinal < 0 {
		return fmt.Errorf("exec: negative join ordinal")
	}
	j.table = nil
	j.pending = nil
	if err := j.Left.Open(env); err != nil {
		return err
	}
	if err := j.Right.Open(env); err != nil {
		j.Left.Close()
		return err
	}
	return nil
}

// build drains the left input into the hash table.
func (j *HashJoin) build() error {
	j.table = make(map[string][]record.Tuple)
	var key []byte
	for {
		t, ok, err := j.Left.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if j.LeftOrdinal >= len(t) {
			return fmt.Errorf("exec: join ordinal %d out of range for build tuple", j.LeftOrdinal)
		}
		key = appendKey(key[:0], t[j.LeftOrdinal])
		j.table[string(key)] = append(j.table[string(key)], t.Clone())
	}
}

// Next emits the next joined tuple. The returned tuple is reused.
func (j *HashJoin) Next() (record.Tuple, bool, error) {
	if j.table == nil {
		if err := j.build(); err != nil {
			return nil, false, err
		}
	}
	var key []byte
	for {
		if len(j.pending) > 0 {
			left := j.pending[0]
			j.pending = j.pending[1:]
			j.out = j.out[:0]
			j.out = append(j.out, left...)
			j.out = append(j.out, j.probe...)
			return j.out, true, nil
		}
		t, ok, err := j.Right.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if j.RightOrdinal >= len(t) {
			return nil, false, fmt.Errorf("exec: join ordinal %d out of range for probe tuple", j.RightOrdinal)
		}
		key = appendKey(key[:0], t[j.RightOrdinal])
		matches := j.table[string(key)]
		if len(matches) == 0 {
			continue
		}
		j.probe = append(j.probe[:0], t...)
		j.pending = matches
	}
}

// Close closes both inputs, reporting the first error.
func (j *HashJoin) Close() error {
	errL := j.Left.Close()
	errR := j.Right.Close()
	if errL != nil {
		return errL
	}
	return errR
}
