package dataset

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// WriteJSON encodes the dataset as indented JSON.
func (d *Dataset) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("encode dataset: %w", err)
	}
	return nil
}

// ReadJSON decodes a dataset from JSON and sorts every series.
func ReadJSON(r io.Reader) (*Dataset, error) {
	var d Dataset
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("decode dataset: %w", err)
	}
	d.sortSeries()
	return &d, nil
}

func (d *Dataset) sortSeries() {
	for i := range d.Products {
		d.Products[i].Ratings.Sort()
	}
}

// WriteCSV writes the dataset as flat CSV rows:
// product,day,value,rater,unfair.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"product", "day", "value", "rater", "unfair"}); err != nil {
		return fmt.Errorf("write csv header: %w", err)
	}
	for _, p := range d.Products {
		for _, r := range p.Ratings {
			rec := []string{
				p.ID,
				strconv.FormatFloat(r.Day, 'f', 4, 64),
				strconv.FormatFloat(r.Value, 'f', 2, 64),
				r.Rater,
				strconv.FormatBool(r.Unfair),
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("write csv row: %w", err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("flush csv: %w", err)
	}
	return nil
}

// ReadCSV parses the flat CSV layout produced by WriteCSV.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("read csv: %w", err)
	}
	if len(records) == 0 {
		return &Dataset{}, nil
	}
	d := &Dataset{}
	index := make(map[string]int)
	var horizon float64
	for i, rec := range records {
		if i == 0 && rec[0] == "product" {
			continue // header
		}
		if len(rec) < 5 {
			return nil, fmt.Errorf("csv row %d: want 5 fields, got %d", i, len(rec))
		}
		day, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("csv row %d day: %w", i, err)
		}
		val, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("csv row %d value: %w", i, err)
		}
		unfair, err := strconv.ParseBool(rec[4])
		if err != nil {
			return nil, fmt.Errorf("csv row %d unfair: %w", i, err)
		}
		pi, ok := index[rec[0]]
		if !ok {
			pi = len(d.Products)
			index[rec[0]] = pi
			d.Products = append(d.Products, Product{ID: rec[0]})
		}
		d.Products[pi].Ratings = append(d.Products[pi].Ratings, Rating{
			Day: day, Value: val, Rater: rec[3], Unfair: unfair,
		})
		if day > horizon {
			horizon = day
		}
	}
	d.HorizonDays = horizon
	for i := range d.Products {
		d.Products[i].Ratings.Sort()
	}
	return d, nil
}
