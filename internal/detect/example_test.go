package detect_test

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/detect"
)

func ExampleDecide() {
	// 100 days of honest 4-star ratings with a 10-day block of 0.5-star
	// unfair ratings planted on days 40–50.
	var s dataset.Series
	for d := 0; d < 100; d++ {
		for i := 0; i < 3; i++ {
			s = append(s, dataset.Rating{
				Day:   float64(d) + float64(i)/3,
				Value: 4,
				Rater: fmt.Sprintf("h%d-%d", d, i),
			})
		}
	}
	for i := 0; i < 30; i++ {
		s = append(s, dataset.Rating{
			Day:    40 + float64(i)/3,
			Value:  0.5,
			Rater:  fmt.Sprintf("bot%02d", i),
			Unfair: true,
		})
	}
	s.Sort()

	// Stage 1: the trust-free detector signals. Stage 2: the trust
	// decision and the Figure 1 fusion (nil: every rater trusted 0.5).
	cfg, sc := detect.DefaultConfig(), detect.NewScratch()
	sig := detect.SeriesSignals(s, cfg, sc, nil)
	sig.HARC, sig.LARC = detect.ArrivalSignals(s, 100, cfg, sc, nil)
	dec := detect.Decide(s, sig, cfg, nil)
	flagged, caught := 0, 0
	for i, r := range s {
		if dec.Suspicious[i] {
			flagged++
			if r.Unfair {
				caught++
			}
		}
	}
	fmt.Printf("flagged %d ratings, %d of the 30 unfair ones\n", flagged, caught)
	fmt.Printf("suspicious interval starts near day %.0f\n", dec.Intervals[0].Start)
	// Output:
	// flagged 30 ratings, 30 of the 30 unfair ones
	// suspicious interval starts near day 35
}
