package record

import (
	"strings"
	"testing"
)

func TestSelectColumnsValidation(t *testing.T) {
	s := testSchema(t)
	for _, ord := range []int{-1, s.NumFields()} {
		if _, err := SelectColumns(s, 0, ord); err == nil {
			t.Errorf("ordinal %d accepted", ord)
		}
	}
	if got := AllColumns(s).Schema(); got != s {
		t.Error("AllColumns lost its schema")
	}
}

// TestColumnSetsDoNotAllocate: a column set is a schema pointer and a mask,
// so compiling one per query, by ordinal or by name, costs nothing on the heap.
func TestColumnSetsDoNotAllocate(t *testing.T) {
	s := testSchema(t)
	ords := []int{3, 0, 3}
	names := []string{"id", "comment"}
	var c Columns
	if got := testing.AllocsPerRun(100, func() {
		a, err := SelectColumns(s, ords...)
		b, err2 := SelectNamed(s, names...)
		if err != nil || err2 != nil {
			t.Fatal(err, err2)
		}
		c = a.Union(b).With(1)
	}); got != 0 {
		t.Errorf("building a column set allocates %v times, want 0", got)
	}
	for ord := 0; ord < s.NumFields(); ord++ {
		if !c.Reads(ord) {
			t.Errorf("union of {0, 3}, {id, comment} and 1 does not read field %d", ord)
		}
	}
	if _, err := SelectNamed(s, "id", "nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

// TestArenaClonesOwnTheirBytes: an arena clone survives the string it was
// cloned from being overwritten, and later clones do not overwrite it.
func TestArenaClonesOwnTheirBytes(t *testing.T) {
	var a Arena
	buf := []byte("abcdefgh")
	var kept []string
	for i := 0; i < 100; i++ { // several chunks
		kept = append(kept, a.Clone(ViewString(buf)))
		buf[0]++
	}
	long := strings.Repeat("x", 3*arenaChunk)
	if got := a.Clone(long); got != long {
		t.Errorf("long clone %q", got)
	}
	for i, s := range kept {
		if want := string([]byte{byte('a' + i)}) + "bcdefgh"; s != want {
			t.Errorf("clone %d = %q, want %q", i, s, want)
		}
	}
	if a.Clone("") != "" {
		t.Error("empty clone not empty")
	}
}
