package backend

import (
	"math"
	"strings"
	"testing"

	"repro/internal/hwsim"
	"repro/internal/space"
	"repro/internal/tensor"
)

func testWorkload(t *testing.T) (tensor.Workload, *space.Space) {
	t.Helper()
	w := tensor.Conv2D(1, 32, 28, 28, 64, 3, 1, 1)
	sp, err := space.ForWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	return w, sp
}

func sameMeasurement(a, b hwsim.Measurement) bool {
	return a.Valid == b.Valid &&
		math.Float64bits(a.GFLOPS) == math.Float64bits(b.GFLOPS) &&
		math.Float64bits(a.TimeMS) == math.Float64bits(b.TimeMS)
}

func TestRegistryKnownDevices(t *testing.T) {
	names := Devices()
	if len(names) == 0 {
		t.Fatal("no registered devices")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("device list not sorted: %v", names)
		}
	}
	for _, name := range names {
		b, err := New(name, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if b.Name() != name {
			t.Fatalf("Name() = %q, want %q", b.Name(), name)
		}
		if !b.Seeded() {
			t.Fatalf("%s: simulator backend must report Seeded", name)
		}
		if b.Simulator() == nil {
			t.Fatalf("%s: nil simulator", name)
		}
	}
}

func TestRegistryUnknownDevice(t *testing.T) {
	_, err := New("tpu-v9", 1)
	if err == nil {
		t.Fatal("unknown device must error")
	}
	if !strings.Contains(err.Error(), "tpu-v9") {
		t.Fatalf("error should name the device: %v", err)
	}
}

func TestCacheServesIdenticalRepeats(t *testing.T) {
	w, sp := testWorkload(t)
	b, err := New("gtx1080ti", 3)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(b)
	if cache.Name() != b.Name() {
		t.Fatalf("memo renamed the backend: %q, want %q", cache.Name(), b.Name())
	}
	c := sp.FromFlat(17)

	first := cache.MeasureSeeded(w, c, 99)
	again := cache.MeasureSeeded(w, c, 99)
	if !sameMeasurement(first, again) {
		t.Fatal("cached repeat differs from first measurement")
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("misses=%d hits=%d entries=%d after one repeat", st.Misses, st.Hits, st.Entries)
	}

	// A different noise seed is a different measurement, not a hit.
	other := cache.MeasureSeeded(w, c, 100)
	if st := cache.Stats(); st.Misses != 2 {
		t.Fatalf("distinct seed must miss: misses=%d", st.Misses)
	}
	if sameMeasurement(first, other) {
		t.Fatal("distinct noise seeds produced bitwise-equal noise (suspicious)")
	}
}

func TestCacheMatchesUncachedBackend(t *testing.T) {
	w, sp := testWorkload(t)
	raw, err := New("gtx1080ti", 7)
	if err != nil {
		t.Fatal(err)
	}
	cachedInner, err := New("gtx1080ti", 7)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(cachedInner)
	for i := uint64(0); i < 32; i++ {
		f := (i * 7) % 16 // repeats guaranteed
		c := sp.FromFlat(f)
		a := raw.MeasureSeeded(w, c, int64(f))
		b := cache.MeasureSeeded(w, c, int64(f))
		if !sameMeasurement(a, b) {
			t.Fatalf("flat %d: cache changed the observable measurement", f)
		}
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatal("repeat sweep produced no cache hits")
	}
	if st.Misses+st.Hits != 32 {
		t.Fatalf("accounting broken: %d+%d != 32", st.Misses, st.Hits)
	}
}

func TestCacheUnseededPassThrough(t *testing.T) {
	w, sp := testWorkload(t)
	b, err := New("gtx1080ti", 5)
	if err != nil {
		t.Fatal(err)
	}
	counting := NewCounting(b)
	cache := NewCache(counting)
	c := sp.FromFlat(3)
	cache.Measure(w, c)
	cache.Measure(w, c)
	if st := cache.Stats(); st.Hits != 0 || st.Entries != 0 {
		t.Fatal("shared-stream Measure must never be cached")
	}
	if counting.Calls() != 2 {
		t.Fatalf("pass-through lost calls: %d", counting.Calls())
	}
}

func TestCountingAccounts(t *testing.T) {
	w, sp := testWorkload(t)
	b, err := New("gtx1080ti", 9)
	if err != nil {
		t.Fatal(err)
	}
	counting := NewCounting(b)
	counting.Measure(w, sp.FromFlat(1))
	counting.MeasureSeeded(w, sp.FromFlat(2), 11)
	counting.MeasureSeeded(w, sp.FromFlat(3), 12)
	if counting.Calls() != 3 || counting.SeededCalls() != 2 {
		t.Fatalf("calls=%d seeded=%d", counting.Calls(), counting.SeededCalls())
	}
	if !counting.Seeded() {
		t.Fatal("counting must forward Seeded")
	}
}

func TestFlakySeededIsOrderIndependent(t *testing.T) {
	w, sp := testWorkload(t)
	b, err := New("gtx1080ti", 2)
	if err != nil {
		t.Fatal(err)
	}
	flaky := NewFlaky(b, 0.5, 1)
	// Forward sweep, then reverse sweep on a fresh wrapper: the injected
	// failures must land on the same (config, seed) pairs.
	forward := make([]bool, 32)
	for i := range forward {
		forward[i] = flaky.MeasureSeeded(w, sp.FromFlat(uint64(i)), int64(i)).Valid
	}
	b2, err := New("gtx1080ti", 2)
	if err != nil {
		t.Fatal(err)
	}
	flaky2 := NewFlaky(b2, 0.5, 1)
	for i := len(forward) - 1; i >= 0; i-- {
		if got := flaky2.MeasureSeeded(w, sp.FromFlat(uint64(i)), int64(i)).Valid; got != forward[i] {
			t.Fatalf("seeded failure injection depends on call order at %d", i)
		}
	}
	if flaky.Failures() == 0 || flaky.Failures() == len(forward) {
		t.Fatalf("failures=%d of %d; injection should be partial at p=0.5", flaky.Failures(), len(forward))
	}
	if flaky2.Failures() != flaky.Failures() {
		t.Fatalf("failure counts diverge: %d vs %d", flaky.Failures(), flaky2.Failures())
	}
}
