// Package trust implements the beta-function trust model (Jøsang & Ismail)
// and the paper's Procedure 1 trust manager: rater trust is accumulated from
// counts of suspicious (F) and non-suspicious (S) ratings at periodic trust
// epochs, with T = (S+1)/(S+F+2).
package trust

import (
	"maps"
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// InitialTrust is the trust of a rater with no history: (0+1)/(0+0+2).
const InitialTrust = 0.5

// Beta returns the beta-function trust value (s+1)/(s+f+2).
func Beta(s, f float64) float64 {
	return (s + 1) / (s + f + 2)
}

// Record is one rater's accumulated evidence.
type Record struct {
	S float64 // ratings judged non-suspicious
	F float64 // ratings judged suspicious
}

// Trust returns the record's beta trust value.
func (r Record) Trust() float64 { return Beta(r.S, r.F) }

// Symbols is an append-only table interning rater IDs as dense ordinals in
// first-seen order, so trust, counts and caches can be keyed by a small
// integer instead of a hashed ID. A table a Manager reads is frozen:
// interning a new ID into it interns into a fork, so a manager handed to
// another goroutine never sees its name index written. Forks share a
// read-only base of the first ordinals and own an overlay of the rest; a
// fork copies only the overlay, or flattens both into a new base once the
// overlay passes 1/8 of it, so forking costs O(new names), amortized.
type Symbols struct {
	base    []string          // ordinals [0, len(base)), shared read-only
	baseOrd map[string]uint32 // index of base, shared read-only
	names   []string          // overlay: ordinals len(base) on
	ords    map[string]uint32 // index of names
	shared  atomic.Bool       // read by a Manager: Intern must fork
}

// NewSymbols returns an empty table with room for n IDs.
func NewSymbols(n int) *Symbols {
	return &Symbols{names: make([]string, 0, n), ords: make(map[string]uint32, n)}
}

// SymbolsOf returns the table that holds names[o] under ordinal o, or
// false when an ID appears in names twice. The table keeps names.
func SymbolsOf(names []string) (*Symbols, bool) {
	ords := make(map[string]uint32, len(names))
	for o, id := range names {
		if ords[id] = uint32(o); len(ords) == o {
			return nil, false
		}
	}
	return &Symbols{names: slices.Clip(names), ords: ords}, true
}

// Len returns the number of interned IDs; ordinals are [0, Len).
func (t *Symbols) Len() int { return len(t.base) + len(t.names) }

// Name returns the ID of ordinal o.
func (t *Symbols) Name(o uint32) string {
	if int(o) < len(t.base) {
		return t.base[o]
	}
	return t.names[int(o)-len(t.base)]
}

// lookup returns id's ordinal, if it is interned.
func (t *Symbols) lookup(id string) (uint32, bool) {
	if o, ok := t.baseOrd[id]; ok {
		return o, true
	}
	o, ok := t.ords[id]
	return o, ok
}

// Intern returns id's ordinal and the table that holds it: t, unless id is
// new and t frozen, in which case a fork of t extended by id. Callers
// replace their table with the returned one.
func (t *Symbols) Intern(id string) (*Symbols, uint32) {
	if o, ok := t.lookup(id); ok {
		return t, o
	}
	if t.shared.Load() {
		t = t.fork()
	}
	o := uint32(t.Len())
	t.names = append(t.names, id)
	t.ords[id] = o
	return t, o
}

// fork returns an unfrozen table holding t's IDs under t's ordinals.
func (t *Symbols) fork() *Symbols {
	if len(t.names) <= len(t.base)/8 {
		return &Symbols{base: t.base, baseOrd: t.baseOrd, names: slices.Clone(t.names), ords: maps.Clone(t.ords)}
	}
	f := &Symbols{base: slices.Concat(t.base, t.names), baseOrd: make(map[string]uint32, t.Len()), ords: make(map[string]uint32)}
	maps.Copy(f.baseOrd, t.baseOrd)
	maps.Copy(f.baseOrd, t.ords)
	return f
}

// Manager accumulates suspiciousness evidence per rater across trust epochs
// (Procedure 1). Records are indexed by the rater's ordinal in the
// manager's symbol table, 8 bytes each, so Clone is one small copy. Each
// of a rater's two counts, S and F, is bounded by maxCount (2³²−2): an
// Observe that would take one past it panics rather than wrap. The zero
// value is not usable; call NewManager.
type Manager struct {
	syms *Symbols
	recs []slot // by ordinal; ordinals past the end have no evidence
	n    int    // slots with evidence
}

const maxCount = math.MaxUint32 - 1

// slot is one ordinal's record as integer counts: s is S+1 for a rater
// observed (even with no ratings), 0 for one this manager never saw.
type slot struct{ s, f uint32 }

// NewManager returns an empty trust manager over its own symbol table.
func NewManager() *Manager {
	return &Manager{syms: NewSymbols(0)}
}

// Observe records that rater id provided n ratings during the epoch, of
// which f were marked suspicious (Procedure 1 lines 7–9: F += f,
// S += n − f). Calls with n < f are clamped so S never decreases below its
// prior value.
func (m *Manager) Observe(id string, n, f int) {
	var o uint32
	m.syms, o = m.syms.Intern(id)
	m.ObserveAt(o, n, f)
}

// ObserveAt is Observe for the rater with ordinal o in the manager's table.
func (m *Manager) ObserveAt(o uint32, n, f int) {
	if n < 0 {
		n = 0
	}
	if f < 0 {
		f = 0
	}
	if f > n {
		f = n
	}
	if int(o) >= len(m.recs) {
		m.recs = append(m.recs, make([]slot, int(o)+1-len(m.recs))...)
	}
	s := &m.recs[o]
	s1 := max(s.s, 1) // S+1
	if uint64(s1)+uint64(n-f) > maxCount+1 || uint64(s.f)+uint64(f) > maxCount {
		panic("trust: a rater's evidence count would pass 2^32-2")
	}
	if s.s == 0 {
		m.n++
	}
	s.s, s.f = s1+uint32(n-f), s.f+uint32(f)
}

// Trust returns the current trust in rater id (InitialTrust when unknown:
// the zero record's Beta(0, 0) is exactly InitialTrust).
func (m *Manager) Trust(id string) float64 { return m.Record(id).Trust() }

// TrustAt is Trust for the rater with ordinal o.
func (m *Manager) TrustAt(o uint32) float64 { return m.RecordAt(o).Trust() }

// Record returns the raw evidence for rater id.
func (m *Manager) Record(id string) Record {
	o, ok := m.syms.lookup(id)
	if !ok {
		return Record{}
	}
	return m.RecordAt(o)
}

// RecordAt is Record for the rater with ordinal o.
func (m *Manager) RecordAt(o uint32) Record {
	if int(o) < len(m.recs) && m.recs[o].s != 0 {
		return Record{S: float64(m.recs[o].s - 1), F: float64(m.recs[o].f)}
	}
	return Record{}
}

// Len returns the number of raters with recorded evidence.
func (m *Manager) Len() int { return m.n }

// Snapshot returns all (rater, trust) pairs sorted by rater ID, for
// reporting.
func (m *Manager) Snapshot() []RaterTrust {
	out := make([]RaterTrust, 0, m.n)
	for o, s := range m.recs {
		if s.s != 0 {
			out = append(out, RaterTrust{Rater: m.syms.Name(uint32(o)), Trust: m.RecordAt(uint32(o)).Trust()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rater < out[j].Rater })
	return out
}

// Clone returns a deep copy of the manager: the copy and the receiver can
// be observed independently without affecting each other. It backs the
// engine's per-epoch trust checkpoints, but is generally useful for
// what-if evaluation against a frozen trust state.
func (m *Manager) Clone() *Manager { return m.CloneOver(m.syms) }

// CloneOver is Clone onto the table t, which must extend the receiver's
// (every ordinal names the same rater in both), as a table returned by
// Intern does. t is frozen from then on.
func (m *Manager) CloneOver(t *Symbols) *Manager {
	t.shared.Store(true)
	return &Manager{syms: t, recs: slices.Clone(m.recs), n: m.n}
}

// Reset forgets all evidence.
func (m *Manager) Reset() {
	m.recs, m.n = nil, 0
}

// RaterTrust pairs a rater ID with its trust value.
type RaterTrust struct {
	Rater string
	Trust float64
}
