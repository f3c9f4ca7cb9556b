package dataset

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestJSONRoundTrip(t *testing.T) {
	cfg := DefaultFairConfig()
	cfg.Products = 2
	cfg.HorizonDays = 20
	d, err := GenerateFair(stats.NewRNG(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	read, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []*Dataset{read, decoded} {
		if got.HorizonDays != d.HorizonDays {
			t.Errorf("horizon = %v, want %v", got.HorizonDays, d.HorizonDays)
		}
		if len(got.Products) != len(d.Products) {
			t.Fatalf("products = %d, want %d", len(got.Products), len(d.Products))
		}
		for i := range d.Products {
			if len(got.Products[i].Ratings) != len(d.Products[i].Ratings) {
				t.Fatalf("product %d rating count mismatch", i)
			}
		}
	}
}

func TestReadJSONInvalid(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{nonsense")); err == nil {
		t.Error("ReadJSON(invalid): want error")
	}
	if _, err := DecodeJSON([]byte("{nonsense")); err == nil {
		t.Error("DecodeJSON(invalid): want error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := &Dataset{
		HorizonDays: 5,
		Products: []Product{
			{ID: "tv1", Ratings: Series{
				{Day: 1.5, Value: 4, Rater: "h1"},
				{Day: 2.25, Value: 2.5, Rater: "h2", Unfair: true},
			}},
			{ID: "tv2", Ratings: Series{{Day: 0.5, Value: 5, Rater: "h3"}}},
		},
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Products) != 2 {
		t.Fatalf("products = %d", len(got.Products))
	}
	p1, err := got.Product("tv1")
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Ratings) != 2 {
		t.Fatalf("tv1 ratings = %d", len(p1.Ratings))
	}
	if !p1.Ratings[1].Unfair {
		t.Error("unfair flag lost in CSV round trip")
	}
	if p1.Ratings[0].Value != 4 || p1.Ratings[1].Value != 2.5 {
		t.Errorf("values = %v", p1.Ratings.Values())
	}
}

func TestReadCSVMalformed(t *testing.T) {
	cases := []string{
		"product,day,value,rater,unfair\ntv1,notanumber,4,h1,false\n",
		"product,day,value,rater,unfair\ntv1,1,notanumber,h1,false\n",
		"product,day,value,rater,unfair\ntv1,1,4,h1,notabool\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: want parse error", i)
		}
	}
}

func TestReadCSVEmpty(t *testing.T) {
	d, err := ReadCSV(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Products) != 0 {
		t.Errorf("products = %d, want 0", len(d.Products))
	}
}
