package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"repro/internal/agg"
	"repro/internal/dataset"
	"repro/internal/mp"
	"repro/internal/server"
)

// reference is the from-scratch P-scheme evaluation of a set of accepted
// ratings: what the service must serve, bit for bit.
type reference struct {
	data *dataset.Dataset
	res  *agg.Result
}

func newReference(d *dataset.Dataset) *reference {
	return &reference{data: d, res: agg.NewPScheme().Evaluate(d)}
}

// served is what the service answered for one product.
type served struct {
	scores []float64 // GET /products/{id}/scores
	report server.Report
}

// fetchServed reads /scores and /report of every product over HTTP.
func fetchServed(lb *loopback, products []string) (map[string]served, error) {
	out := make(map[string]served, len(products))
	var buf bytes.Buffer
	for _, id := range products {
		var s served
		if _, err := lb.do(request{method: http.MethodGet, path: scoresPath(id), want: http.StatusOK}, -1, &buf); err != nil {
			return nil, err
		}
		var raw []*float64
		if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
			return nil, fmt.Errorf("decode %s scores: %w", id, err)
		}
		s.scores = fromJSON(raw)
		if _, err := lb.do(request{method: http.MethodGet, path: reportPath(id), want: http.StatusOK}, -1, &buf); err != nil {
			return nil, err
		}
		rep, err := decodeReport(buf.Bytes())
		if err != nil {
			return nil, fmt.Errorf("decode %s report: %w", id, err)
		}
		s.report = rep
		out[id] = s
	}
	return out, nil
}

// fromJSON maps the service's encodings of an empty period (JSON null, or
// the -1 the handlers substitute for NaN) back to NaN.
func fromJSON(raw []*float64) []float64 {
	out := make([]float64, len(raw))
	for i, v := range raw {
		if v == nil || *v == -1 {
			out[i] = math.NaN()
			continue
		}
		out[i] = *v
	}
	return out
}

func decodeReport(b []byte) (server.Report, error) {
	var rep struct {
		server.Report
		Scores []*float64 `json:"scores"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return server.Report{}, err
	}
	rep.Report.Scores = fromJSON(rep.Scores)
	return rep.Report, nil
}

// checkReport compares one served report with the reference: rating count,
// suspicious count and every score bit for bit (NaN matches NaN).
func (ref *reference) checkReport(id string, rep server.Report) error {
	p, err := ref.data.Product(id)
	if err != nil {
		return err
	}
	if rep.Stale {
		return fmt.Errorf("%s: report is stale", id)
	}
	if rep.Ratings != len(p.Ratings) {
		return fmt.Errorf("%s: served %d ratings, reference has %d", id, rep.Ratings, len(p.Ratings))
	}
	susp := 0
	for _, m := range ref.res.Suspicious[id] {
		if m {
			susp++
		}
	}
	if !rep.HasSuspicious || rep.Suspicious != susp {
		return fmt.Errorf("%s: served %d suspicious ratings, reference marks %d", id, rep.Suspicious, susp)
	}
	return sameScores(id+" report", rep.Scores, ref.res.Table[id])
}

// check compares every product's served /scores and /report with the
// reference.
func (ref *reference) check(got map[string]served) error {
	for _, p := range ref.data.Products {
		s, ok := got[p.ID]
		if !ok {
			return fmt.Errorf("%s: not served", p.ID)
		}
		if err := sameScores(p.ID+" scores", s.scores, ref.res.Table[p.ID]); err != nil {
			return err
		}
		if err := ref.checkReport(p.ID, s.report); err != nil {
			return err
		}
	}
	return nil
}

func sameScores(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d periods, reference has %d", what, len(got), len(want))
	}
	for i := range want {
		if math.IsNaN(want[i]) && math.IsNaN(got[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s: period %d served %v, reference %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// manipulationPower is the MP (paper §III) of the served table against
// the P-scheme's table for the fair ratings alone.
func manipulationPower(got map[string]served, fairOnly *dataset.Dataset) float64 {
	table := make(mp.Table, len(got))
	for id, s := range got {
		table[id] = s.scores
	}
	return mp.Compute(agg.NewPScheme().Aggregates(fairOnly), table).Overall
}
