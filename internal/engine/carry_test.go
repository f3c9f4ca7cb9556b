package engine

import (
	"fmt"
	"testing"

	"repro/internal/detect"
)

// TestStateRebindsOnConfigChange: a state resumed by an engine with a
// different configuration must not reuse the checkpoints, memo entries or
// carries computed under the old one. Each Resume must equal a fresh
// evaluation under the resuming engine's configuration.
func TestStateRebindsOnConfigChange(t *testing.T) {
	d := testDataset(t, 3, 4, 300)
	tuned := detect.DefaultConfig()
	tuned.MCThreshold1, tuned.METhreshold = 0.3, 0.9
	engines := []*Engine{
		{Detect: detect.DefaultConfig()},
		{Detect: tuned},
		{Detect: detect.DefaultConfig(), DisableFilter: true},
		{Detect: detect.DefaultConfig(), DisableTrustWeighting: true},
		{Detect: detect.DefaultConfig(), Workers: 3},
	}
	st := NewState()
	for i, eng := range engines {
		label := fmt.Sprintf("engine %d %+v", i, *eng)
		requireEqualResults(t, label, mustResume(t, eng, st, d), mustEvaluate(t, eng, d))
	}
	// Workers only schedules: changing it alone keeps the state, so the
	// unchanged data replays from the memo.
	before := st.Stats().Analyzed
	mustResume(t, &Engine{Detect: detect.DefaultConfig(), Workers: 1}, st, d)
	if n := st.Stats().Analyzed - before; n != 0 {
		t.Fatalf("a Workers change re-ran %d analyses; the state was rebound", n)
	}
}
