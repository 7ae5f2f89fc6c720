package vnnserver

import (
	"context"
	"math/rand"
	"testing"

	"repro/pkg/vnn"
)

// testMonitor builds a small monitor over its own compiled network.
func testMonitor(t *testing.T, seed int64) (*vnn.CompiledNetwork, *vnn.Monitor) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := vnn.NewNetwork(vnn.NetworkConfig{
		Name: "lru-test", InputDim: 2, Hidden: []int{4}, OutputDim: 1,
		HiddenAct: vnn.ReLU, OutputAct: vnn.Identity,
	}, rng)
	region := &vnn.Region{Box: []vnn.Interval{{Lo: -1, Hi: 1}, {Lo: -1, Hi: 1}}}
	cn, err := vnn.Compile(context.Background(), net, region, vnn.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := [][]float64{{0.1, 0.2}, {-0.3, 0.4}, {0.5, -0.6}}
	mon, err := vnn.BuildMonitor(cn, data, vnn.MonitorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return cn, mon
}

// TestCacheHitPathsAllocateNothing pins the by-fingerprint hot path's
// cache calls at zero allocations: the workload lookup, the monitor
// content lookup, and a compile-cache hit.
func TestCacheHitPathsAllocateNothing(t *testing.T) {
	cn, mon := testMonitor(t, 1)
	workloads := newLRU[string, *inferWorkload](4, nil)
	workloads.Import("w", &inferWorkload{})
	monitors := newMonitorCache(4)
	monitors.importContent(mon)
	cache := NewCache(4)
	cache.Import("c", cn)
	ctx, contentFP := context.Background(), mon.Fingerprint()
	compile := func() (*vnn.CompiledNetwork, error) { return cn, nil }

	for name, hit := range map[string]func() bool{
		"workloads.get": func() bool { _, ok := workloads.get("w"); return ok },
		"lookupContent": func() bool { _, ok := monitors.lookupContent(contentFP); return ok },
		"GetOrCompile": func() bool {
			_, hit, err := cache.GetOrCompile(ctx, "c", compile)
			return hit && err == nil
		},
	} {
		if !hit() {
			t.Fatalf("%s missed", name)
		}
		if allocs := testing.AllocsPerRun(100, func() { hit() }); allocs != 0 {
			t.Errorf("%s hit allocates %.1f times, want 0", name, allocs)
		}
	}
}

// TestMonitorCacheIndexFollowsEviction pins the content index's eviction
// hook: an evicted monitor leaves the index, so it is neither resolvable
// nor advertised to fleet peers.
func TestMonitorCacheIndexFollowsEviction(t *testing.T) {
	_, m1 := testMonitor(t, 1)
	_, m2 := testMonitor(t, 2)
	c := newMonitorCache(1)
	if !c.importContent(m1) || c.importContent(m1) {
		t.Fatal("import of a new monitor must succeed exactly once")
	}
	c.importContent(m2) // evicts m1
	if _, ok := c.lookupContent(m1.Fingerprint()); ok {
		t.Fatal("evicted monitor still resolves by content")
	}
	if keys := c.contentKeys(); len(keys) != 1 || keys[0] != m2.Fingerprint() {
		t.Fatalf("content keys %v, want only the resident monitor", keys)
	}
	if st := c.Stats(); st.Evictions != 1 || st.Size != 1 || st.Bytes <= 0 {
		t.Fatalf("stats %+v, want 1 eviction and one accounted entry", st)
	}
}
