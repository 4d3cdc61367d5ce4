package main

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"poiagg/internal/citygen"
	"poiagg/internal/dataset"
)

func TestBuildCityPresets(t *testing.T) {
	city, err := buildCity("", "beijing", 1)
	if err != nil {
		t.Fatal(err)
	}
	if city.NumPOIs() != 10_249 {
		t.Errorf("NumPOIs = %d", city.NumPOIs())
	}
	if _, err := buildCity("", "gotham", 1); err == nil {
		t.Error("unknown city accepted")
	}
}

func TestBuildCityFromSnapshot(t *testing.T) {
	p := citygen.Beijing(2)
	p.NumPOIs = 500
	p.NumTypes = 30
	gen, err := citygen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "city.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.SaveCity(f, gen.City); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	city, err := buildCity(path, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if city.NumPOIs() != 500 || city.M() != 30 {
		t.Errorf("loaded %d POIs / %d types", city.NumPOIs(), city.M())
	}
	if _, err := buildCity(filepath.Join(t.TempDir(), "missing.json"), "", 0); err == nil {
		t.Error("missing snapshot accepted")
	}
}

// TestFlagSurface pins every flag's name and default: scripts and the
// benchmark start gspd with these flags, so moving a flag between files
// must not rename it or change its default.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr=:8080",
		"admit-limit=0",
		"admit-queue=128",
		"admit-timeout=500ms",
		"auth-keys=",
		"auth-window=2m0s",
		"city=beijing",
		"load=",
		"max-body=1048576",
		"max-radius=10000",
		"pprof=false",
		"seed=1",
		"stats-interval=1m0s",
		"store-dir=",
		"store-interval=5m0s",
		"store-top=4096",
	}
	fs := flag.NewFlagSet("gspd", flag.ContinueOnError)
	declareFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	if !slices.Equal(got, want) {
		t.Errorf("flags changed:\ngot  %q\nwant %q", got, want)
	}
}
