package dataset

import (
	"crypto/sha256"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"dbcatcher/internal/kpi"
)

// smallConfig keeps generation fast in tests.
func smallConfig(f Family) Config {
	return Config{Family: f, Units: 6, Ticks: 400, Seed: 1}
}

func TestGenerateShape(t *testing.T) {
	ds, err := Generate(smallConfig(Sysbench))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Units) != 6 {
		t.Fatalf("units = %d", len(ds.Units))
	}
	for _, u := range ds.Units {
		if u.Unit.Series.Len() != 400 {
			t.Fatalf("unit length %d", u.Unit.Series.Len())
		}
		if u.Unit.Series.KPIs != kpi.Count {
			t.Fatalf("kpis = %d", u.Unit.Series.KPIs)
		}
		if err := u.Unit.Series.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGenerateDefaultsMatchTableIII(t *testing.T) {
	cfg := Config{Family: Tencent}.withDefaults()
	if cfg.Units != 100 {
		t.Errorf("Tencent units = %d, want 100", cfg.Units)
	}
	if math.Abs(cfg.AnomalyRatio-0.0311) > 1e-9 {
		t.Errorf("Tencent ratio = %v, want 0.0311", cfg.AnomalyRatio)
	}
	cfg = Config{Family: Sysbench}.withDefaults()
	if cfg.Units != 50 || math.Abs(cfg.AnomalyRatio-0.0421) > 1e-9 {
		t.Errorf("Sysbench defaults wrong: %+v", cfg)
	}
	cfg = Config{Family: TPCC}.withDefaults()
	if cfg.Units != 50 || math.Abs(cfg.AnomalyRatio-0.0406) > 1e-9 {
		t.Errorf("TPCC defaults wrong: %+v", cfg)
	}
	// Table III Sysbench: 50 units x 5 DBs x 2592 ticks = 648000 points.
	if cfg.Units*databases*cfg.Ticks != 648000 {
		t.Errorf("default TPCC/Sysbench total points = %d, want 648000",
			cfg.Units*databases*cfg.Ticks)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig(TPCC))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig(TPCC))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Units {
		av := a.Units[i].Unit.Series.Data[0][0].Values
		bv := b.Units[i].Unit.Series.Data[0][0].Values
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("unit %d differs at %d", i, j)
			}
		}
	}
}

// TestGeneratePinned pins a small dataset of each family at the default
// database count and periodic fraction: a SHA-256 digest of every value
// and label. Floats are pinned on amd64 only, as in TestVerdictDigests.
func TestGeneratePinned(t *testing.T) {
	want := map[Family]string{
		Tencent:  "9ef065ef55d3d3d2e66ee1ff2590fe1a348c721bdb02525f7c8181ffbbd28b7d",
		Sysbench: "9c649baa2c84de8589a2c472d81093085799e1a9f6654464e4127ac918932f3d",
		TPCC:     "23cb33bd4c0bb423389a23272f5e1095c09c2a27a931af87aed4f2cd960e17a7",
	}
	for _, f := range []Family{Tencent, Sysbench, TPCC} {
		ds, err := Generate(Config{Family: f, Units: 5, Ticks: 300, Seed: 3, Concurrency: 1})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, u := range ds.Units {
			fmt.Fprintf(h, "%s %d\n", u.Profile, u.Unit.Series.Databases)
			for _, row := range u.Unit.Series.Data {
				for _, s := range row {
					fmt.Fprintln(h, s.Values)
				}
			}
			fmt.Fprintln(h, u.Labels.Point, u.Labels.DB)
		}
		got := fmt.Sprintf("%x", h.Sum(nil))
		if runtime.GOARCH == "amd64" && got != want[f] {
			t.Errorf("%s: dataset digest %s, pinned %s", f, got, want[f])
		}
	}
}

func TestStats(t *testing.T) {
	ds, err := Generate(smallConfig(Sysbench))
	if err != nil {
		t.Fatal(err)
	}
	s := ds.Stats()
	if s.Units != 6 || s.Dimensions != 14 {
		t.Fatalf("stats = %+v", s)
	}
	if s.TotalPoints != 6*5*400 {
		t.Fatalf("TotalPoints = %d", s.TotalPoints)
	}
	if s.AbnormalRatio < 0.015 || s.AbnormalRatio > 0.06 {
		t.Fatalf("AbnormalRatio = %v, want near 4%%", s.AbnormalRatio)
	}
}

func TestSplit(t *testing.T) {
	ds, err := Generate(smallConfig(Sysbench))
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := ds.Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(train.Units) != 6 || len(test.Units) != 6 {
		t.Fatal("split unit counts wrong")
	}
	for i := range train.Units {
		tr, te := train.Units[i], test.Units[i]
		if tr.Unit.Series.Len() != 200 || te.Unit.Series.Len() != 200 {
			t.Fatalf("split lengths %d/%d", tr.Unit.Series.Len(), te.Unit.Series.Len())
		}
		// Continuity: test's first point is the original's point 200.
		orig := ds.Units[i].Unit.Series.Data[3][2].Values[200]
		if te.Unit.Series.Data[3][2].Values[0] != orig {
			t.Fatal("test set does not continue where train ends")
		}
		// Labels align.
		if len(tr.Labels.Point) != 200 || len(te.Labels.Point) != 200 {
			t.Fatal("label lengths wrong")
		}
		for k := 0; k < 200; k++ {
			if tr.Labels.Point[k] != ds.Units[i].Labels.Point[k] {
				t.Fatal("train labels shifted")
			}
			if te.Labels.Point[k] != ds.Units[i].Labels.Point[200+k] {
				t.Fatal("test labels shifted")
			}
		}
	}
	if _, _, err := ds.Split(0); err == nil {
		t.Fatal("bad fraction should error")
	}
}

func TestSplitByProfile(t *testing.T) {
	cfg := smallConfig(Sysbench)
	cfg.Units = 10
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	irr, per := ds.SplitByProfile()
	if len(per.Units) != 4 || len(irr.Units) != 6 {
		t.Fatalf("profile split = %d periodic / %d irregular, want 4/6",
			len(per.Units), len(irr.Units))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds, err := Generate(smallConfig(TPCC))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		filepath.Join(t.TempDir(), "ds.json"),
		filepath.Join(t.TempDir(), "ds.json.gz"),
	} {
		if err := ds.Save(path); err != nil {
			t.Fatal(err)
		}
		back, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if back.Name != ds.Name || len(back.Units) != len(ds.Units) {
			t.Fatal("metadata lost")
		}
		for i := range ds.Units {
			a := ds.Units[i]
			b := back.Units[i]
			if a.Profile != b.Profile {
				t.Fatal("profile lost")
			}
			if a.Labels.AbnormalCount() != b.Labels.AbnormalCount() {
				t.Fatal("labels lost")
			}
			for k := 0; k < a.Unit.Series.KPIs; k++ {
				for d := 0; d < a.Unit.Series.Databases; d++ {
					av := a.Unit.Series.Data[k][d].Values
					bv := b.Unit.Series.Data[k][d].Values
					if len(av) != len(bv) {
						t.Fatal("length lost")
					}
					for j := range av {
						if av[j] != bv[j] {
							t.Fatalf("value drift at kpi %d db %d idx %d", k, d, j)
						}
					}
				}
			}
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestFamilyString(t *testing.T) {
	if Tencent.String() != "Tencent" || Sysbench.String() != "Sysbench" || TPCC.String() != "TPCC" {
		t.Fatal("family names wrong")
	}
}
