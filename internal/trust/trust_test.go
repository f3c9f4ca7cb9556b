package trust

import (
	"testing"
	"testing/quick"
)

func TestBeta(t *testing.T) {
	tests := []struct {
		s, f, want float64
	}{
		{0, 0, 0.5},
		{8, 0, 0.9},
		{0, 8, 0.1},
		{3, 3, 0.5},
	}
	for _, tt := range tests {
		if got := Beta(tt.s, tt.f); got != tt.want {
			t.Errorf("Beta(%v,%v) = %v, want %v", tt.s, tt.f, got, tt.want)
		}
	}
}

func TestManagerInitialTrust(t *testing.T) {
	m := NewManager()
	if got := m.Trust("unknown"); got != InitialTrust {
		t.Errorf("Trust(unknown) = %v, want %v", got, InitialTrust)
	}
}

func TestManagerObserve(t *testing.T) {
	m := NewManager()
	m.Observe("alice", 10, 0)
	if got := m.Trust("alice"); got != Beta(10, 0) {
		t.Errorf("clean rater trust = %v, want %v", got, Beta(10, 0))
	}
	m.Observe("bob", 10, 10)
	if got := m.Trust("bob"); got != Beta(0, 10) {
		t.Errorf("dirty rater trust = %v, want %v", got, Beta(0, 10))
	}
	// Accumulation across epochs.
	m.Observe("alice", 5, 2)
	want := Beta(13, 2)
	if got := m.Trust("alice"); got != want {
		t.Errorf("accumulated trust = %v, want %v", got, want)
	}
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
}

func TestManagerObserveClamping(t *testing.T) {
	m := NewManager()
	m.Observe("x", 3, 7) // f > n: clamp f to n
	rec := m.Record("x")
	if rec.S != 0 || rec.F != 3 {
		t.Errorf("record = %+v, want S=0 F=3", rec)
	}
	m.Observe("y", -1, -2) // nonsense input ignored
	rec = m.Record("y")
	if rec.S != 0 || rec.F != 0 {
		t.Errorf("record = %+v, want zero", rec)
	}
}

func TestManagerSnapshotSorted(t *testing.T) {
	m := NewManager()
	m.Observe("zeta", 1, 0)
	m.Observe("alpha", 1, 1)
	snap := m.Snapshot()
	if len(snap) != 2 || snap[0].Rater != "alpha" || snap[1].Rater != "zeta" {
		t.Errorf("Snapshot = %v", snap)
	}
}

func TestManagerReset(t *testing.T) {
	m := NewManager()
	m.Observe("a", 5, 5)
	m.Reset()
	if m.Len() != 0 || m.Trust("a") != InitialTrust {
		t.Error("Reset did not clear records")
	}
}

func TestClone(t *testing.T) {
	m := NewManager()
	m.Observe("alice", 10, 2)
	m.Observe("bob", 4, 4)
	c := m.Clone()

	// The clone starts bit-identical.
	if c.Len() != m.Len() {
		t.Fatalf("clone Len = %d, want %d", c.Len(), m.Len())
	}
	for _, id := range []string{"alice", "bob", "stranger"} {
		if c.Record(id) != m.Record(id) {
			t.Errorf("clone Record(%q) = %+v, want %+v", id, c.Record(id), m.Record(id))
		}
		if c.Trust(id) != m.Trust(id) {
			t.Errorf("clone Trust(%q) = %v, want %v", id, c.Trust(id), m.Trust(id))
		}
	}

	// Diverging the original leaves the clone untouched, and vice versa.
	m.Observe("alice", 0, 5)
	if got, want := c.Record("alice"), (Record{S: 8, F: 2}); got != want {
		t.Errorf("clone record after original Observe = %+v, want %+v", got, want)
	}
	c.Observe("carol", 3, 0)
	if m.Len() != 2 {
		t.Errorf("original gained clone's rater: Len = %d, want 2", m.Len())
	}
	m.Reset()
	if c.Len() != 3 || c.Trust("bob") != Beta(0, 4) {
		t.Error("resetting the original clobbered the clone")
	}
}

func TestCloneEmpty(t *testing.T) {
	c := NewManager().Clone()
	if c.Len() != 0 || c.Trust("anyone") != InitialTrust {
		t.Errorf("empty clone: Len=%d Trust=%v", c.Len(), c.Trust("anyone"))
	}
	c.Observe("a", 1, 0) // must be usable, not a nil map
	if c.Len() != 1 {
		t.Error("empty clone not observable")
	}
}

// Property: trust is always in (0,1), increases with S, decreases with F.
func TestBetaBoundsAndMonotonicityProperty(t *testing.T) {
	f := func(sRaw, fRaw uint16) bool {
		s, fl := float64(sRaw), float64(fRaw)
		v := Beta(s, fl)
		if v <= 0 || v >= 1 {
			return false
		}
		return Beta(s+1, fl) > v && Beta(s, fl+1) < v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Observe order does not matter (evidence is additive).
func TestObserveCommutativityProperty(t *testing.T) {
	f := func(obs []uint8) bool {
		// Interpret pairs of bytes as (n, f) observations.
		type pair struct{ n, f int }
		var pairs []pair
		for i := 0; i+1 < len(obs); i += 2 {
			pairs = append(pairs, pair{int(obs[i]), int(obs[i+1])})
		}
		m1 := NewManager()
		for _, p := range pairs {
			m1.Observe("r", p.n, p.f)
		}
		m2 := NewManager()
		for i := len(pairs) - 1; i >= 0; i-- {
			m2.Observe("r", pairs[i].n, pairs[i].f)
		}
		return m1.Trust("r") == m2.Trust("r")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A count that would leave its 8-byte slot's range panics instead of
// wrapping and leaves the manager as it was; a count at the bound is kept
// exactly.
func TestManagerCountBound(t *testing.T) {
	m := NewManager()
	m.Observe("s", maxCount, 0)
	m.Observe("f", maxCount, maxCount)
	if got := m.Record("s"); got != (Record{S: maxCount}) {
		t.Fatalf("Record at the S bound = %+v, want S=%d", got, uint64(maxCount))
	}
	if got := m.Record("f"); got != (Record{F: maxCount}) {
		t.Fatalf("Record at the F bound = %+v, want F=%d", got, uint64(maxCount))
	}
	for _, c := range []struct {
		id   string
		n, f int
	}{{"s", 1, 0}, {"f", 1, 1}, {"fresh", maxCount + 1, 0}, {"fresh", maxCount + 1, maxCount + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Observe(%q, %d, %d) past the bound did not panic", c.id, c.n, c.f)
				}
			}()
			m.Observe(c.id, c.n, c.f)
		}()
	}
	if got := m.Record("s"); got != (Record{S: maxCount}) || m.Len() != 2 {
		t.Fatalf("a refused Observe changed the manager: Record(s) = %+v, Len = %d", got, m.Len())
	}
}

// TestSymbolsOf builds a table from a name list: each name keeps its
// position as its ordinal, a new name extends the table after them, and a
// list that names an ID twice is refused.
func TestSymbolsOf(t *testing.T) {
	for _, index := range []bool{false, true} {
		names := []string{"carol", "alice", "bob"}
		tab, ok := SymbolsOf(names, index)
		if !ok || tab.Len() != 3 {
			t.Fatalf("SymbolsOf(index %v) = %v, %v", index, tab, ok)
		}
		for o, id := range names {
			if got := tab.Name(uint32(o)); got != id {
				t.Fatalf("Name(%d) = %q, want %q", o, got, id)
			}
			if _, got := tab.Intern(id); got != uint32(o) {
				t.Fatalf("Intern(%q) = %d, want %d", id, got, o)
			}
		}
		if tab, o := tab.Intern("dave"); o != 3 || tab.Len() != 4 || names[2] != "bob" {
			t.Fatalf("Intern of a new name: ordinal %d, length %d, names %q", o, tab.Len(), names)
		}
		for _, dup := range [][]string{{"a", "a"}, {"a", "b", "c", "b"}} {
			if _, ok := SymbolsOf(dup, index); ok {
				t.Fatalf("SymbolsOf(%q, index %v) accepted a repeated name", dup, index)
			}
		}
	}
}
