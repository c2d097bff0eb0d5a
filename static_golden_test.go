package permcell_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"permcell"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from current output")

// TestStaticShapesGolden pins the three static decompositions to the trace
// recorded before they were folded onto the shared step runtime: per step
// the work census and total energy as exact float bits, plus a hash of the
// final particle state. Any drift means the merged ownership seam changed a
// summation order or an exchange. Every line still carries "shards=1", the
// file's format from when it also pinned a sharded kernel, so the recorded
// lines stay byte-identical.
func TestStaticShapesGolden(t *testing.T) {
	shapes := []struct {
		shape permcell.Shape
		p     int
	}{
		{permcell.ShapePlane, 4},
		{permcell.ShapeSquarePillar, 4},
		{permcell.ShapeCube, 8},
	}
	var b strings.Builder
	for _, sh := range shapes {
		eng, err := permcell.NewStatic(sh.shape, 4, sh.p, 0.256, permcell.WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Step(20); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Result()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Stats) != 20 {
			t.Fatalf("%v: %d records, want 20", sh.shape, len(res.Stats))
		}
		for _, st := range res.Stats {
			fmt.Fprintf(&b, "%v shards=1 step=%d work=%016x/%016x/%016x energy=%016x\n",
				sh.shape, st.Step,
				math.Float64bits(st.WorkMax), math.Float64bits(st.WorkAve), math.Float64bits(st.WorkMin),
				math.Float64bits(st.TotalEnergy))
		}
		h := sha256.New()
		for _, v := range []any{res.Final.ID, res.Final.Pos, res.Final.Vel} {
			if err := binary.Write(h, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
		fmt.Fprintf(&b, "%v shards=1 final=%x\n", sh.shape, h.Sum(nil))
	}
	path := filepath.Join("testdata", "static_shapes.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("static trace drifted from the golden at line %d:\n got %s\nwant %s", i+1, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatal("static trace shorter than the golden")
	}
}
