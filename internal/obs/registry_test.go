package obs

import (
	"reflect"
	"testing"
)

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	var hits uint64
	util := 0.5
	r.Counter("cache.l3.demand_hits", func() uint64 { return hits })
	r.Gauge("dram.ctl.bus_util", func() float64 { return util })

	if got := r.Names(); !reflect.DeepEqual(got, []string{"cache.l3.demand_hits", "dram.ctl.bus_util"}) {
		t.Fatalf("Names() = %v", got)
	}
	if got := r.Snapshot(); !reflect.DeepEqual(got, []float64{0, 0.5}) {
		t.Fatalf("Snapshot() = %v", got)
	}
	hits = 42
	util = 0.25
	if got := r.Snapshot(); !reflect.DeepEqual(got, []float64{42, 0.25}) {
		t.Fatalf("Snapshot() after update = %v", got)
	}
}

func TestRegistryDoubleRegisterPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("cpu.core.instructions", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("double registration did not panic")
		}
	}()
	r.Counter("cpu.core.instructions", func() uint64 { return 0 })
}

func TestRegistryCrossKindDoubleRegisterPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("cpu.core.instructions", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("gauge over existing counter name did not panic")
		}
	}()
	r.Gauge("cpu.core.instructions", func() float64 { return 0 })
}

func TestRegistryNameValidation(t *testing.T) {
	bad := []string{"", "noseparator", "Upper.case", "dots..empty", ".leading", "trailing.", "sp ace.x"}
	for _, name := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", name)
				}
			}()
			NewRegistry().Counter(name, func() uint64 { return 0 })
		}()
	}
	good := []string{"a.b", "cache.l3.demand_misses", "layer.component.metric_2"}
	for _, name := range good {
		NewRegistry().Counter(name, func() uint64 { return 0 })
	}
}
