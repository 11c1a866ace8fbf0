package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"netcrafter/internal/sim"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d want 5", c.Value())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestHistogram(t *testing.T) {
	h := NewHistogram("a", "b")
	h.Observe("a", 3)
	h.Observe("b", 1)
	h.Observe("c", 6) // dynamically added bucket
	if h.Total() != 10 {
		t.Fatalf("total = %d want 10", h.Total())
	}
	if h.Share("c") != 0.6 {
		t.Fatalf("share(c) = %f want 0.6", h.Share("c"))
	}
	order := h.Buckets()
	if len(order) != 3 || order[0] != "a" || order[2] != "c" {
		t.Fatalf("bucket order = %v", order)
	}
	if got := h.String(); got != "a=3 b=1 c=6" {
		t.Fatalf("String() = %q", got)
	}
	// Merge appends the buckets h has not seen, in the source's order.
	o := NewHistogram("d", "a")
	o.Observe("e", 2)
	o.Observe("a", 1)
	h.Merge(o)
	if got := h.String(); got != "a=4 b=1 c=6 d=0 e=2" {
		t.Fatalf("merged String() = %q", got)
	}
	empty := NewHistogram()
	if empty.Share("x") != 0 {
		t.Fatal("empty histogram share != 0")
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("GeoMean(1,4) = %f want 2", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean(nil) != 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("GeoMean with zero did not panic")
		}
	}()
	GeoMean([]float64{0})
}

// Property: GeoMean lies between min and max of the inputs.
func TestGeoMeanBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = 0.001 + float64(r)/100
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := GeoMean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanAndSortedKeys(t *testing.T) {
	if Mean(nil) != 0 || Mean([]float64{2, 4}) != 3 {
		t.Fatal("Mean wrong")
	}
	keys := SortedKeys(map[string]int{"b": 1, "a": 2})
	if len(keys) != 2 || keys[0] != "a" {
		t.Fatalf("SortedKeys = %v", keys)
	}
}

func TestLinkStats(t *testing.T) {
	l := NewLinkStats("x", 2)
	for c := 0; c < 10; c++ {
		l.RecordMove(sim.Cycle(10 + c))
	}
	if u := l.Utilization(100); math.Abs(u-10.0/200.0) > 1e-12 {
		t.Fatalf("utilization = %f want 0.05", u)
	}
	if l.Utilization(0) != 0 {
		t.Fatal("zero-window utilization != 0")
	}
}

func TestNetStats(t *testing.T) {
	n := NewNetStats()
	if n.StitchRate() != 0 || n.PTWShare() != 0 {
		t.Fatal("empty NetStats rates != 0")
	}
	n.FlitsTotal.Add(10)
	n.FlitsStitched.Add(4)
	n.PTWFlits.Add(1)
	n.DataFlits.Add(9)
	if n.StitchRate() != 0.4 {
		t.Fatalf("stitch rate = %f", n.StitchRate())
	}
	if n.PTWShare() != 0.1 {
		t.Fatalf("ptw share = %f", n.PTWShare())
	}
}

// TestNetStatsCountersCoverEveryCounter pins the one-list contract:
// every Counter field of NetStats appears in Counters exactly once, so
// a new counter cannot miss its gauge or its Merge.
func TestNetStatsCountersCoverEveryCounter(t *testing.T) {
	n := NewNetStats()
	listed := map[*Counter]bool{}
	for _, c := range n.Counters() {
		if listed[c.C] {
			t.Fatalf("counter %s listed twice", c.Name)
		}
		listed[c.C] = true
	}
	v := reflect.ValueOf(n).Elem()
	fields := 0
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Type() != reflect.TypeOf(Counter{}) {
			continue
		}
		fields++
		if !listed[v.Field(i).Addr().Interface().(*Counter)] {
			t.Errorf("NetStats.%s is missing from Counters()", v.Type().Field(i).Name)
		}
	}
	if fields != len(listed) {
		t.Fatalf("%d Counter fields, %d listed", fields, len(listed))
	}
}

func TestNetStatsMerge(t *testing.T) {
	a, b := NewNetStats(), NewNetStats()
	for i, c := range b.Counters() {
		c.C.Add(int64(i + 1))
	}
	b.Occupancy.Observe("full", 3)
	b.FlitsByType.Observe("ReadRsp", 2)
	b.BytesByType.Observe("custom", 7)
	a.Merge(b)
	a.Merge(b)
	for i, c := range a.Counters() {
		if want := 2 * int64(i+1); c.C.Value() != want {
			t.Errorf("%s = %d after two merges, want %d", c.Name, c.C.Value(), want)
		}
	}
	if a.Occupancy.Get("full") != 6 || a.FlitsByType.Get("ReadRsp") != 4 || a.BytesByType.Get("custom") != 14 {
		t.Errorf("histograms not merged: %s / %s / %s", a.Occupancy, a.FlitsByType, a.BytesByType)
	}
}
