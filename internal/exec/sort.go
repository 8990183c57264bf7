package exec

import (
	"fmt"
	"sort"

	"scanshare/internal/record"
)

// SortKey is one ORDER BY term.
type SortKey struct {
	// Ordinal indexes the input tuple.
	Ordinal int
	// Desc reverses the order for this key.
	Desc bool
}

// Sort materializes its input and emits it ordered by the keys.
//
// Sort exists for a reason the paper spells out: a sharing scan does not
// deliver tuples in storage order (it starts mid-range and wraps around), so
// a query that needs ordered output must either fall back to an unshared
// scan or sort explicitly. An explicit Sort keeps the scan shareable; its
// memory cost is the materialized input.
type Sort struct {
	Input Operator
	Keys  []SortKey

	rows []record.Tuple
	pos  int
}

// Open opens the input and validates the keys.
func (s *Sort) Open(env *Env) error {
	if s.Input == nil {
		return fmt.Errorf("exec: Sort needs Input")
	}
	if len(s.Keys) == 0 {
		return fmt.Errorf("exec: Sort with no keys")
	}
	s.rows = nil
	s.pos = 0
	return s.Input.Open(env)
}

// Next drains and sorts the input on first call, then emits rows in order.
func (s *Sort) Next() (record.Tuple, bool, error) {
	if s.rows == nil {
		if err := s.run(); err != nil {
			return nil, false, err
		}
	}
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	t := s.rows[s.pos]
	s.pos++
	return t, true, nil
}

func (s *Sort) run() error {
	s.rows = []record.Tuple{}
	for {
		t, ok, err := s.Input.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for _, k := range s.Keys {
			if k.Ordinal < 0 || k.Ordinal >= len(t) {
				return fmt.Errorf("exec: sort ordinal %d out of range", k.Ordinal)
			}
		}
		s.rows = append(s.rows, t.Clone())
	}
	var sortErr error
	sort.SliceStable(s.rows, func(i, j int) bool {
		for _, k := range s.Keys {
			a, b := s.rows[i][k.Ordinal], s.rows[j][k.Ordinal]
			if a.Kind != b.Kind {
				sortErr = fmt.Errorf("exec: sort key %d mixes kinds", k.Ordinal)
				return false
			}
			c := record.Compare(a, b)
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return sortErr
}

// Close closes the input.
func (s *Sort) Close() error { return s.Input.Close() }
