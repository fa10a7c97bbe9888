package kernel

import (
	"testing"

	"xmem/internal/core"
	"xmem/internal/mem"
)

func TestNestedTranslationComposes(t *testing.T) {
	host := NewAddressSpace(NewRandomizedAllocator(8<<20, 11), nil)
	guest, err := NewNestedSpace(host, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	va, err := guest.Malloc("buf", 3*mem.PageBytes, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every guest-virtual byte reaches a host-physical address with the
	// page offset preserved through both levels.
	for off := mem.Addr(0); off < 3*mem.PageBytes; off += 777 {
		hpa, ok := guest.Translate(va + off)
		if !ok {
			t.Fatalf("offset %#x failed to translate", off)
		}
		if mem.PageOffset(hpa) != mem.PageOffset(va+off) {
			t.Fatalf("page offset not preserved: %#x -> %#x", va+off, hpa)
		}
	}
	// Unmapped guest VA fails.
	if _, ok := guest.Translate(0x10); ok {
		t.Error("unmapped guest VA translated")
	}
}

func TestNestedHostRandomizationSpreadsGuestPages(t *testing.T) {
	host := NewAddressSpace(NewRandomizedAllocator(8<<20, 12), nil)
	guest, _ := NewNestedSpace(host, 1<<20)
	va, _ := guest.Malloc("buf", 8*mem.PageBytes, 0)
	sequential := true
	var prev mem.Addr
	for p := 0; p < 8; p++ {
		hpa, ok := guest.Translate(va + mem.Addr(p)*mem.PageBytes)
		if !ok {
			t.Fatal("translation failed")
		}
		if p > 0 && hpa != prev+mem.PageBytes {
			sequential = false
		}
		prev = hpa
	}
	if sequential {
		t.Error("guest pages land host-sequentially despite randomized host mapping")
	}
}

func TestNestedXMemUnchanged(t *testing.T) {
	// §4.3: atoms map through the composed translation and the AMU's
	// host-physical AAM serves lookups with no special handling.
	host := NewAddressSpace(NewSequentialAllocator(8<<20), nil)
	guest, _ := NewNestedSpace(host, 1<<20)
	amu := core.NewAMU(guest, core.AMUConfig{})
	lib := core.NewLib(amu)
	id := lib.CreateAtom("guest.buf", core.Attributes{Reuse: 7})
	va, _ := guest.Malloc("buf", 2*mem.PageBytes, id)
	lib.AtomMap(id, va, 2*mem.PageBytes)
	lib.AtomActivate(id)

	hpa, _ := guest.Translate(va + 5000)
	got, ok := amu.Lookup(hpa)
	if !ok || got != id {
		t.Fatalf("host-physical lookup = %d,%v want %d,true", got, ok, id)
	}
}

func TestNestedGuestExhaustion(t *testing.T) {
	host := NewAddressSpace(NewSequentialAllocator(8<<20), nil)
	guest, _ := NewNestedSpace(host, 2*mem.PageBytes)
	if _, err := guest.Malloc("big", 4*mem.PageBytes, 0); err == nil {
		t.Error("guest overcommit succeeded")
	}
	if n := guest.Guest().MappedPages(); n != 0 {
		t.Errorf("failed malloc left %d guest pages mapped", n)
	}
}
