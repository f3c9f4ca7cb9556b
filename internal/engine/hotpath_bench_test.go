package engine

import (
	"testing"

	"repro/internal/trust"
)

// Runtime counterpart of the //lint:hotpath annotation on the memo's
// trust-tier key compare: the static gate proves it cannot allocate,
// AllocsPerRun proves it did not. It runs on every cache probe of every
// epoch, so an allocation here would tax exactly the path the memo plane
// exists to make cheap.

func memoBenchFixture() (*trust.Manager, []uint32, *trust.Manager) {
	mgr := trust.NewManager()
	raters := []uint32{0, 1, 2, 3, 4, 5}
	for i, o := range raters {
		mgr.ObserveAt(o, 10+i, i)
	}
	return mgr, raters, mgr.Clone()
}

func TestFingerprintsAllocFree(t *testing.T) {
	mgr, raters, under := memoBenchFixture()
	ok := true
	if allocs := testing.AllocsPerRun(100, func() {
		ok = ok && trustRecordsMatch(mgr, raters, under)
	}); allocs != 0 {
		t.Errorf("trustRecordsMatch: %v allocs/op, want 0", allocs)
	}
	if !ok {
		t.Error("trustRecordsMatch rejected an identical clone")
	}
}

func BenchmarkTrustRecordsMatch(b *testing.B) {
	mgr, raters, under := memoBenchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	ok := true
	for i := 0; i < b.N; i++ {
		ok = ok && trustRecordsMatch(mgr, raters, under)
	}
	if !ok {
		b.Fatal("trustRecordsMatch rejected an identical clone")
	}
}
