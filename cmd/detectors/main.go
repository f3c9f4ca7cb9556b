// Command detectors runs the P-scheme's unfair-rating detector stack (mean
// change, H-ARC/L-ARC arrival-rate change, histogram change, AR model
// error, and the Figure 1 two-path fusion) over a rating dataset and
// reports the suspicious intervals and ratings per product.
//
// Usage:
//
//	attackgen -format json > attacked.json
//	detectors -in attacked.json
//	detectors -demo            # synthesize an attacked dataset first
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/stats"
)

func main() {
	var (
		inPath  = flag.String("in", "", "dataset file (JSON as written by attackgen/dataset.WriteJSON)")
		demo    = flag.Bool("demo", false, "synthesize a demo dataset with one planted attack instead of reading -in")
		verbose = flag.Bool("v", false, "print per-rating marks")
		curves  = flag.String("curves", "", "write the indicator curves (MC, H-ARC, L-ARC, HC, ME) to this CSV file")
	)
	flag.Parse()
	if err := run(os.Stdout, *inPath, *demo, *verbose, *curves); err != nil {
		fmt.Fprintln(os.Stderr, "detectors:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, inPath string, demo, verbose bool, curvesPath string) error {
	d, err := load(inPath, demo)
	if err != nil {
		return err
	}
	var curvesOut io.WriteCloser
	if curvesPath != "" {
		f, err := os.Create(curvesPath)
		if err != nil {
			return err
		}
		curvesOut = f
		defer f.Close()
		fmt.Fprintln(curvesOut, "product,curve,day,value")
	}
	cfg := detect.DefaultConfig()
	sc := detect.NewScratch()
	for _, p := range d.Products {
		var carry detect.Prefix
		sig := detect.SeriesSignals(p.Ratings, cfg, sc, &carry)
		sig.HARC, sig.LARC = detect.ArrivalSignals(p.Ratings, d.HorizonDays, cfg, sc, &carry)
		dec := detect.Decide(p.Ratings, sig, cfg, nil)
		mc, high, low, hc, me := carry.Curves(cfg)
		suspiciousSegments := 0
		for _, seg := range dec.Segments {
			if seg.Suspicious {
				suspiciousSegments++
			}
		}
		fmt.Fprintf(w, "== product %s: %s ==\n", p.ID, p.Ratings.Stats())
		fmt.Fprintf(w, "  MC peaks %d, suspicious segments %d | H-ARC alarm %v | L-ARC alarm %v | HC windows %d | ME windows %d\n",
			len(mc.Peaks(cfg.MCPeakThreshold, cfg.MCPeakMinSepDays)), suspiciousSegments,
			sig.HARC.Alarm(), sig.LARC.Alarm(), len(sig.HC), len(sig.ME))
		if curvesOut != nil {
			for _, c := range []struct {
				name  string
				curve detect.Curve
			}{{"MC", mc}, {"H-ARC", high}, {"L-ARC", low}, {"HC", hc}, {"ME", me}} {
				for i := range c.curve.X {
					fmt.Fprintf(curvesOut, "%s,%s,%.4f,%.6f\n", p.ID, c.name, c.curve.X[i], c.curve.Y[i])
				}
			}
		}
		if len(dec.Intervals) == 0 {
			fmt.Fprintln(w, "  verdict: no suspicious ratings")
			continue
		}
		// tp+fp counts the marks; with ground truth (attackgen tags unfair
		// ratings), tp and fn also score them.
		var tp, fp, fn int
		for i, r := range p.Ratings {
			switch {
			case r.Unfair && dec.Suspicious[i]:
				tp++
			case !r.Unfair && dec.Suspicious[i]:
				fp++
			case r.Unfair && !dec.Suspicious[i]:
				fn++
			}
		}
		fmt.Fprintf(w, "  verdict: %d suspicious ratings in %d interval(s):\n", tp+fp, len(dec.Intervals))
		for _, iv := range dec.Intervals {
			fmt.Fprintf(w, "    days %.1f – %.1f\n", iv.Start, iv.End)
		}
		if verbose {
			for i, r := range p.Ratings {
				if dec.Suspicious[i] {
					fmt.Fprintf(w, "    day %7.2f  value %.1f  rater %s\n", r.Day, r.Value, r.Rater)
				}
			}
		}
		if tp+fn > 0 {
			fmt.Fprintf(w, "  ground truth: recall %.0f%%, precision %.0f%% (%d unfair ratings)\n",
				100*float64(tp)/float64(tp+fn),
				100*float64(tp)/float64(max(tp+fp, 1)), tp+fn)
		}
	}
	return nil
}

func load(inPath string, demo bool) (*dataset.Dataset, error) {
	if demo {
		cfg := dataset.DefaultFairConfig()
		cfg.Products = 2
		d, err := dataset.GenerateFair(stats.NewRNG(11), cfg)
		if err != nil {
			return nil, err
		}
		prod, err := d.Product("tv1")
		if err != nil {
			return nil, err
		}
		gen := core.NewGenerator(12, core.DefaultRaters(50))
		unfair, err := gen.GenerateProduct(core.Profile{
			Bias: -2.6, StdDev: 0.6, Count: 50, StartDay: 50,
			DurationDays: 25, Correlation: core.Independent, Quantize: true,
		}, prod.Ratings)
		if err != nil {
			return nil, err
		}
		if err := d.InjectUnfair("tv1", unfair); err != nil {
			return nil, err
		}
		return d, nil
	}
	if inPath == "" {
		return nil, errors.New("need -in FILE or -demo")
	}
	f, err := os.Open(inPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadJSON(f)
}
