package trust

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/stats"
)

// refManager is the map-keyed trust manager the ordinal-indexed Manager
// replaced, kept as the reference TestManagerMatchesMapReferenceProperty
// compares against.
type refManager struct {
	records map[string]Record
}

func newRefManager() *refManager { return &refManager{records: make(map[string]Record)} }

func (m *refManager) Observe(id string, n, f int) {
	if n < 0 {
		n = 0
	}
	if f < 0 {
		f = 0
	}
	if f > n {
		f = n
	}
	rec := m.records[id]
	rec.F += float64(f)
	rec.S += float64(n - f)
	m.records[id] = rec
}

func (m *refManager) Trust(id string) float64 {
	rec, ok := m.records[id]
	if !ok {
		return InitialTrust
	}
	return rec.Trust()
}

func (m *refManager) Record(id string) Record { return m.records[id] }

func (m *refManager) Len() int { return len(m.records) }

func (m *refManager) Snapshot() []RaterTrust {
	out := make([]RaterTrust, 0, len(m.records))
	for id, rec := range m.records {
		out = append(out, RaterTrust{Rater: id, Trust: rec.Trust()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rater < out[j].Rater })
	return out
}

func (m *refManager) Clone() *refManager {
	out := newRefManager()
	for id, rec := range m.records {
		out.records[id] = rec
	}
	return out
}

func (m *refManager) Reset() { m.records = make(map[string]Record) }

// TestManagerMatchesMapReferenceProperty drives seeded random programs of
// Observe, Clone, CloneOver and Reset against the map reference, and requires Trust, Record, Len and Snapshot to agree bit
// for bit after every step — on every manager, so a clone observed on its
// own (interning raters its origin never saw) can neither leak into nor
// lose anything from the others.
func TestManagerMatchesMapReferenceProperty(t *testing.T) {
	type pair struct {
		m   *Manager
		ref *refManager
	}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := stats.NewRNG(seed)
		ids := make([]string, 24)
		for i := range ids {
			ids[i] = fmt.Sprintf("r%02d", rng.IntN(40))
		}
		probe := append(ids, "stranger", "")
		pairs := []pair{{NewManager(), newRefManager()}}
		for step := 0; step < 400; step++ {
			k := rng.IntN(len(pairs))
			p := &pairs[k]
			op := ""
			switch x := rng.IntN(100); {
			case x < 70:
				id, n, f := ids[rng.IntN(len(ids))], rng.IntN(12)-2, rng.IntN(14)-2
				op = fmt.Sprintf("Observe(%q, %d, %d)", id, n, f)
				p.m.Observe(id, n, f)
				p.ref.Observe(id, n, f)
			case x < 82 && len(pairs) < 8:
				op = "Clone"
				pairs = append(pairs, pair{p.m.Clone(), p.ref.Clone()})
			case x < 88 && len(pairs) < 8:
				// A clone onto an extension of the table, as the engine
				// makes at each epoch: the new name has no record.
				op = "CloneOver"
				t, _ := p.m.syms.Intern(fmt.Sprintf("x%d", step))
				pairs = append(pairs, pair{p.m.CloneOver(t), p.ref.Clone()})
			case x < 92:
				op = "Reset"
				p.m.Reset()
				p.ref.Reset()
			default:
				op = "lookup"
			}
			for j, q := range pairs {
				label := fmt.Sprintf("seed %d step %d (%s on manager %d), manager %d", seed, step, op, k, j)
				requireManagerMatches(t, label, q.m, q.ref, probe)
			}
		}
	}
}

func requireManagerMatches(t *testing.T, label string, m *Manager, ref *refManager, probe []string) {
	t.Helper()
	if m.Len() != ref.Len() {
		t.Fatalf("%s: Len = %d, reference %d", label, m.Len(), ref.Len())
	}
	for _, id := range probe {
		got, want := m.Record(id), ref.Record(id)
		if math.Float64bits(got.S) != math.Float64bits(want.S) || math.Float64bits(got.F) != math.Float64bits(want.F) {
			t.Fatalf("%s: Record(%q) = %+v, reference %+v", label, id, got, want)
		}
		if g, w := m.Trust(id), ref.Trust(id); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: Trust(%q) = %v, reference %v", label, id, g, w)
		}
	}
	got, want := m.Snapshot(), ref.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("%s: Snapshot has %d raters, reference %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Rater != want[i].Rater || math.Float64bits(got[i].Trust) != math.Float64bits(want[i].Trust) {
			t.Fatalf("%s: Snapshot[%d] = %+v, reference %+v", label, i, got[i], want[i])
		}
	}
}
