// Package trust implements the beta-function trust model (Jøsang & Ismail)
// and the paper's Procedure 1 trust manager: rater trust is accumulated from
// counts of suspicious (F) and non-suspicious (S) ratings at periodic trust
// epochs, with T = (S+1)/(S+F+2).
package trust

import (
	"maps"
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
// interning a new ID into it interns into a copy, so a manager handed to
// another goroutine never sees its name index written.
type Symbols struct {
	names  []string          // ordinal → ID
	ords   map[string]uint32 // ID → ordinal
	shared atomic.Bool       // read by a Manager: Intern must copy
}

// NewSymbols returns an empty table.
func NewSymbols() *Symbols { return &Symbols{ords: make(map[string]uint32)} }

// Len returns the number of interned IDs; ordinals are [0, Len).
func (t *Symbols) Len() int { return len(t.names) }

// Name returns the ID of ordinal o.
func (t *Symbols) Name(o uint32) string { return t.names[o] }

// Intern returns id's ordinal and the table that holds it: t, unless id is
// new and t frozen, in which case a copy of t extended by id. Callers
// replace their table with the returned one.
func (t *Symbols) Intern(id string) (*Symbols, uint32) {
	if o, ok := t.ords[id]; ok {
		return t, o
	}
	if t.shared.Load() {
		t = &Symbols{names: slices.Clone(t.names), ords: maps.Clone(t.ords)}
	}
	t.names = append(t.names, id)
	t.ords[id] = uint32(len(t.names) - 1)
	return t, uint32(len(t.names) - 1)
}

// Manager accumulates suspiciousness evidence per rater across trust epochs
// (Procedure 1). Records are indexed by the rater's ordinal in the
// manager's symbol table, so Clone is one copy. The zero value is not
// usable; call NewManager.
type Manager struct {
	syms *Symbols
	recs []slot // by ordinal; ordinals past the end have no evidence
	n    int    // slots with evidence
}

// slot is one ordinal's record; known tells a rater observed (even with no
// ratings) from one this manager never saw.
type slot struct {
	rec   Record
	known bool
}

// NewManager returns an empty trust manager over its own symbol table.
func NewManager() *Manager {
	return &Manager{syms: NewSymbols()}
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
	if !s.known {
		s.known = true
		m.n++
	}
	s.rec.F += float64(f)
	s.rec.S += float64(n - f)
}

// Trust returns the current trust in rater id (InitialTrust when unknown:
// the zero record's Beta(0, 0) is exactly InitialTrust).
func (m *Manager) Trust(id string) float64 { return m.Record(id).Trust() }

// TrustAt is Trust for the rater with ordinal o.
func (m *Manager) TrustAt(o uint32) float64 { return m.RecordAt(o).Trust() }

// Record returns the raw evidence for rater id.
func (m *Manager) Record(id string) Record {
	o, ok := m.syms.ords[id]
	if !ok {
		return Record{}
	}
	return m.RecordAt(o)
}

// RecordAt is Record for the rater with ordinal o.
func (m *Manager) RecordAt(o uint32) Record {
	if int(o) < len(m.recs) {
		return m.recs[o].rec
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
		if s.known {
			out = append(out, RaterTrust{Rater: m.syms.Name(uint32(o)), Trust: s.rec.Trust()})
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
