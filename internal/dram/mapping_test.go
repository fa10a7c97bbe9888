package dram

import (
	"math/rand"
	"strings"
	"testing"

	"xmem/internal/mem"
)

func TestSchemeNamesAllConstruct(t *testing.T) {
	g := DefaultGeometry()
	for _, name := range SchemeNames() {
		m, err := NewMapping(name, g)
		if err != nil {
			t.Errorf("scheme %q: %v", name, err)
			continue
		}
		if m.Name() != name {
			t.Errorf("scheme %q reports name %q", name, m.Name())
		}
	}
}

func TestMappingRejectsUnknownScheme(t *testing.T) {
	if _, err := NewMapping("ro:co", DefaultGeometry()); err == nil {
		t.Error("short scheme accepted")
	}
	if _, err := NewMapping("ro:ro:ba:co:ch", DefaultGeometry()); err == nil {
		t.Error("duplicate-field scheme accepted")
	}
	if _, err := NewMapping("xx:ra:ba:co:ch", DefaultGeometry()); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestMappingRejectsBadGeometry(t *testing.T) {
	bad := DefaultGeometry()
	bad.Channels = 3
	if _, err := NewMapping("ro:ra:ba:co:ch", bad); err == nil {
		t.Error("non-power-of-two channels accepted")
	}
}

func TestGeometryBanksPerChannelLimit(t *testing.T) {
	for _, tc := range []struct {
		ranks, banks int
		ok           bool
	}{
		{1, 64, true},
		{2, 32, true},
		{2, 64, false},
		{1, 128, false},
	} {
		g := DefaultGeometry()
		g.RanksPerChannel, g.BanksPerRank = tc.ranks, tc.banks
		err := g.Validate()
		if tc.ok && err != nil {
			t.Errorf("%d ranks x %d banks: %v", tc.ranks, tc.banks, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "limit 64")) {
			t.Errorf("%d ranks x %d banks: error %v, want the 64-bank limit", tc.ranks, tc.banks, err)
		}
	}
}

func TestMappingFieldsInRange(t *testing.T) {
	g := DefaultGeometry()
	rng := rand.New(rand.NewSource(3))
	for _, name := range SchemeNames() {
		m := MustMapping(name, g)
		for i := 0; i < 2000; i++ {
			pa := mem.Addr(rng.Uint64() % g.CapacityBytes)
			loc := m.Map(pa)
			if loc.Channel < 0 || loc.Channel >= g.Channels {
				t.Fatalf("%s: channel %d out of range", name, loc.Channel)
			}
			if loc.Rank < 0 || loc.Rank >= g.RanksPerChannel {
				t.Fatalf("%s: rank %d out of range", name, loc.Rank)
			}
			if loc.Bank < 0 || loc.Bank >= g.BanksPerRank {
				t.Fatalf("%s: bank %d out of range", name, loc.Bank)
			}
			if loc.Row >= g.RowsPerBank() {
				t.Fatalf("%s: row %d out of range (max %d)", name, loc.Row, g.RowsPerBank())
			}
			if loc.Col >= g.RowBytes/mem.LineBytes {
				t.Fatalf("%s: col %d out of range", name, loc.Col)
			}
		}
	}
}

// TestMappingBankIndexMatchesMap: Mapping.BankIndex, which reads only the
// bank-bearing fields, agrees with Map's full decomposition on every
// scheme, including the XOR schemes' row fold, over geometries with one
// bank, several ranks, and fewer rows than banks.
func TestMappingBankIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, g := range []Geometry{
		DefaultGeometry(),
		{Channels: 4, RanksPerChannel: 4, BanksPerRank: 4, RowBytes: 1024, CapacityBytes: 1 << 24},
		{Channels: 1, RanksPerChannel: 2, BanksPerRank: 1, RowBytes: 64, CapacityBytes: 1 << 16},
		{Channels: 2, RanksPerChannel: 1, BanksPerRank: 8, RowBytes: 8 << 10, CapacityBytes: 1 << 16},
	} {
		for _, name := range SchemeNames() {
			m := MustMapping(name, g)
			for i := 0; i < 2000; i++ {
				pa := mem.Addr(rng.Uint64() % g.CapacityBytes)
				if got, want := m.BankIndex(pa), m.Map(pa).BankIndex(g); got != want {
					t.Fatalf("%s over %+v: BankIndex(%#x) = %d, Map says %d", name, g, pa, got, want)
				}
			}
		}
	}
}

func TestMappingBijective(t *testing.T) {
	// Distinct line addresses must land on distinct locations: the
	// decomposition is a bijection on the line index.
	g := Geometry{Channels: 2, RanksPerChannel: 2, BanksPerRank: 4,
		RowBytes: 1024, CapacityBytes: 1 << 20}
	for _, name := range SchemeNames() {
		m := MustMapping(name, g)
		seen := make(map[Location]mem.Addr)
		for pa := mem.Addr(0); pa < mem.Addr(g.CapacityBytes); pa += mem.LineBytes {
			loc := m.Map(pa)
			if prev, dup := seen[loc]; dup {
				t.Fatalf("%s: %#x and %#x map to the same location %+v", name, prev, pa, loc)
			}
			seen[loc] = pa
		}
	}
}

func TestMappingChannelInterleaveAtLineGranularity(t *testing.T) {
	// Scheme "ro:ra:ba:co:ch" has the channel bit lowest: consecutive
	// lines alternate channels.
	m := MustMapping("ro:ra:ba:co:ch", DefaultGeometry())
	a := m.Map(0)
	b := m.Map(64)
	if a.Channel == b.Channel {
		t.Errorf("consecutive lines on same channel (%d)", a.Channel)
	}
}

func TestMappingRowLocalColumns(t *testing.T) {
	// Scheme "ro:ra:ba:ch:co" has columns lowest: a row-sized sweep stays
	// in one bank and row.
	g := DefaultGeometry()
	m := MustMapping("ro:ra:ba:ch:co", g)
	first := m.Map(0)
	for off := uint64(64); off < g.RowBytes; off += 64 {
		loc := m.Map(mem.Addr(off))
		if loc.Channel != first.Channel || loc.Bank != first.Bank || loc.Row != first.Row {
			t.Fatalf("offset %d left the row: %+v vs %+v", off, loc, first)
		}
	}
	next := m.Map(mem.Addr(g.RowBytes))
	if next == first {
		t.Error("row boundary did not change location")
	}
}

func TestMappingBankInterleave(t *testing.T) {
	// Scheme "ro:co:ra:ba:ch" has banks just above the channel bit:
	// consecutive lines in one channel walk the banks.
	g := DefaultGeometry()
	m := MustMapping("ro:co:ra:ba:ch", g)
	banks := map[int]bool{}
	for i := 0; i < g.Channels*g.BanksPerRank; i++ {
		loc := m.Map(mem.Addr(i * 64))
		if loc.Channel == 0 {
			banks[loc.Bank] = true
		}
	}
	if len(banks) != g.BanksPerRank {
		t.Errorf("line-interleaved scheme touched %d banks, want %d", len(banks), g.BanksPerRank)
	}
}

func TestMappingXORBankSpreadsRows(t *testing.T) {
	// With bank-xor, row-conflicting addresses in the base scheme land in
	// different banks.
	g := DefaultGeometry()
	base := MustMapping("ro:ra:ba:ch:co", g)
	xored := MustMapping("bank-xor", g)
	// Two addresses differing only in low row bits: under the base scheme
	// row bits sit above col+chan+bank+rank.
	rowStride := mem.Addr(g.RowBytes) * mem.Addr(g.Channels*g.BanksPerRank*g.RanksPerChannel)
	a0, a1 := mem.Addr(0), rowStride
	b0, b1 := base.Map(a0), base.Map(a1)
	if b0.Bank != b1.Bank {
		t.Fatalf("base scheme: banks differ (%d, %d); test assumption broken", b0.Bank, b1.Bank)
	}
	x0, x1 := xored.Map(a0), xored.Map(a1)
	if x0.Bank == x1.Bank {
		t.Errorf("bank-xor: consecutive rows share bank %d", x0.Bank)
	}
}

func TestGeometryDerived(t *testing.T) {
	g := DefaultGeometry()
	if g.TotalBanks() != 16 {
		t.Errorf("total banks = %d, want 16", g.TotalBanks())
	}
	if g.BanksPerChannel() != 8 {
		t.Errorf("banks/channel = %d, want 8", g.BanksPerChannel())
	}
	wantRows := (uint64(8) << 30) / (16 * (8 << 10))
	if g.RowsPerBank() != wantRows {
		t.Errorf("rows/bank = %d, want %d", g.RowsPerBank(), wantRows)
	}
}

func TestTimingBandwidth(t *testing.T) {
	tm := DefaultTiming()
	bw := tm.ChannelBandwidthBytesPerSec()
	// Table 3: ~8.5 GB/s per channel (17 GB/s over 2 channels).
	if bw < 8e9 || bw > 9e9 {
		t.Errorf("channel bandwidth = %.2g B/s, want ~8.5e9", bw)
	}
	scaled := tm.WithBandwidthPerCore(1e9, 1, 2) // 1 GB/s total over 2 channels
	got := 2 * scaled.ChannelBandwidthBytesPerSec()
	if got < 0.9e9 || got > 1.1e9 {
		t.Errorf("scaled total bandwidth = %.3g, want ~1e9", got)
	}
}

func TestLocationGlobalBank(t *testing.T) {
	g := DefaultGeometry()
	l := Location{Channel: 1, Rank: 0, Bank: 3}
	if got := l.GlobalBank(g); got != 8+3 {
		t.Errorf("global bank = %d, want 11", got)
	}
}
