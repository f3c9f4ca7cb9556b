// Package dataset defines the rating data model shared by the whole
// reproduction: ratings, per-product rating series, multi-product datasets,
// a synthetic fair-rating generator (the substitute for the paper's
// commercial flat-panel-TV data), and JSON/CSV I/O.
//
// Simulation time is measured in fractional days since the challenge epoch
// (day 0). All series are kept sorted by day.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// Errors returned by the dataset package.
var (
	// ErrUnknownProduct indicates a lookup for a product ID that is not in
	// the dataset.
	ErrUnknownProduct = errors.New("dataset: unknown product")
	// ErrBadConfig indicates an invalid generator configuration.
	ErrBadConfig = errors.New("dataset: bad config")
)

// Rating value bounds used throughout the paper (0–5 star scale).
const (
	MinValue = 0.0
	MaxValue = 5.0
)

// Rating is a single rating event: rater Rater gave value Value on day Day.
// Unfair is the ground-truth label carried through the simulation for
// evaluation only; no detector or aggregation scheme may read it.
type Rating struct {
	Day    float64 `json:"day"`
	Value  float64 `json:"value"`
	Rater  string  `json:"rater"`
	Unfair bool    `json:"unfair,omitempty"`
}

// Series is a time-ordered sequence of ratings for one product.
type Series []Rating

// Sort orders the series by day (stable, so same-day ratings keep their
// insertion order).
func (s Series) Sort() {
	sort.SliceStable(s, func(i, j int) bool { return s[i].Day < s[j].Day })
}

// Clone returns a deep copy of the series.
func (s Series) Clone() Series {
	out := make(Series, len(s))
	copy(out, s)
	return out
}

// Values returns the rating values in series order.
func (s Series) Values() []float64 {
	out := make([]float64, len(s))
	for i, r := range s {
		out[i] = r.Value
	}
	return out
}

// Days returns the rating days in series order.
func (s Series) Days() []float64 {
	out := make([]float64, len(s))
	for i, r := range s {
		out[i] = r.Day
	}
	return out
}

// Mean returns the mean rating value, or 0 for an empty series.
func (s Series) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, r := range s {
		sum += r.Value
	}
	return sum / float64(len(s))
}

// Merge returns a new sorted series containing the ratings of both inputs.
func (s Series) Merge(other Series) Series {
	out := make(Series, 0, len(s)+len(other))
	out = append(out, s...)
	out = append(out, other...)
	out.Sort()
	return out
}

// Insert returns the sorted series with r added. The result is
// bit-identical to Merge(Series{r}): the new rating lands after any
// existing same-day ratings, matching Merge's stable sort.
//
// The contract is append's. A rating that lands at the tail (empty series,
// or no existing rating later than r.Day) is appended, reusing spare
// capacity, so in-order ingest is amortised O(1) per rating. Any other
// rating costs one binary search and one exactly presized copy. Either way
// elements [0, len(s)) of the receiver are never modified — the series is
// never mutated below a view's length — but the result may share the
// receiver's backing array, so only the series' owner may call Insert.
// Hand other readers capacity-capped views (s[:n:n]): an Insert or append
// on such a view always reallocates and can never write into the owner's
// spare capacity.
func (s Series) Insert(r Rating) Series {
	n := len(s)
	if n == 0 || s[n-1].Day <= r.Day {
		return append(s, r)
	}
	i := sort.Search(n, func(j int) bool { return s[j].Day > r.Day })
	out := make(Series, n+1)
	copy(out, s[:i])
	out[i] = r
	copy(out[i+1:], s[i:])
	return out
}

// Between returns the sub-series with Day in [lo, hi). The receiver must be
// sorted. The result aliases the receiver's backing array.
func (s Series) Between(lo, hi float64) Series {
	start, end := s.BetweenIndex(lo, hi)
	return s[start:end]
}

// BetweenIndex returns the index range [start, end) of the ratings with Day
// in [lo, hi). The receiver must be sorted. It lets callers holding
// per-rating side data (e.g. suspicious marks aligned with the series) slice
// a period and its marks by offset instead of rescanning the whole series.
func (s Series) BetweenIndex(lo, hi float64) (start, end int) {
	start = sort.Search(len(s), func(i int) bool { return s[i].Day >= lo })
	end = sort.Search(len(s), func(i int) bool { return s[i].Day >= hi })
	return start, end
}

// Fair returns only the fair (ground-truth honest) ratings.
func (s Series) Fair() Series {
	out := make(Series, 0, len(s))
	for _, r := range s {
		if !r.Unfair {
			out = append(out, r)
		}
	}
	return out
}

// UnfairOnly returns only the ground-truth unfair ratings.
func (s Series) UnfairOnly() Series {
	out := make(Series, 0, len(s))
	for _, r := range s {
		if r.Unfair {
			out = append(out, r)
		}
	}
	return out
}

// DailyCounts buckets the series into integer days [0, horizon) and returns
// the rating count per day.
func (s Series) DailyCounts(horizon float64) []float64 {
	n := int(math.Ceil(horizon))
	if n < 0 {
		n = 0
	}
	out := make([]float64, n)
	for _, r := range s {
		d := int(math.Floor(r.Day))
		if d < 0 || d >= n {
			continue
		}
		out[d]++
	}
	return out
}

// Span returns the first and last rating day, or (0,0) for an empty series.
func (s Series) Span() (first, last float64) {
	if len(s) == 0 {
		return 0, 0
	}
	return s[0].Day, s[len(s)-1].Day
}

// Product is a rated object with its rating history.
//
// Version is a monotone content version of Ratings, maintained by whoever
// owns the product's mutations (internal/store bumps it on every applied
// submit). It lets consumers detect series changes without rehashing: equal
// versions on the same product ID promise a bit-identical series. Version 0
// means "unversioned" — mutators that do not maintain the counter must
// leave it at 0, which opts the product out of version-keyed caching
// (internal/engine's memo plane). It is deliberately not serialized:
// versions are only meaningful within one owner's lifetime.
type Product struct {
	ID      string `json:"id"`
	Ratings Series `json:"ratings"`
	Version uint64 `json:"-"`
}

// Dataset is a collection of products rated over a common horizon.
type Dataset struct {
	HorizonDays float64   `json:"horizonDays"`
	Products    []Product `json:"products"`
}

// Product returns the product with the given ID.
func (d *Dataset) Product(id string) (*Product, error) {
	for i := range d.Products {
		if d.Products[i].ID == id {
			return &d.Products[i], nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownProduct, id)
}

// ProductIDs returns the product IDs in dataset order.
func (d *Dataset) ProductIDs() []string {
	out := make([]string, len(d.Products))
	for i, p := range d.Products {
		out[i] = p.ID
	}
	return out
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{HorizonDays: d.HorizonDays, Products: make([]Product, len(d.Products))}
	for i, p := range d.Products {
		out.Products[i] = Product{ID: p.ID, Ratings: p.Ratings.Clone(), Version: p.Version}
	}
	return out
}

// InjectUnfair merges unfair ratings into the named product, marking them
// with the ground-truth Unfair label, and returns the dataset for chaining.
func (d *Dataset) InjectUnfair(productID string, unfair Series) error {
	p, err := d.Product(productID)
	if err != nil {
		return err
	}
	tagged := unfair.Clone()
	for i := range tagged {
		tagged[i].Unfair = true
	}
	p.Ratings = p.Ratings.Merge(tagged)
	return nil
}

// QuantizeHalfStar rounds v to the nearest 0.5 and clamps it to the valid
// rating range, mimicking the discrete rating widgets of commercial sites.
func QuantizeHalfStar(v float64) float64 {
	q := math.Round(v*2) / 2
	if q < MinValue {
		q = MinValue
	}
	if q > MaxValue {
		q = MaxValue
	}
	return q
}

// Stats returns the descriptive summary of the series' rating values.
func (s Series) Stats() stats.Summary {
	return stats.Summarize(s.Values())
}
