package dram

import (
	"fmt"
	"math/bits"
	"strings"

	"xmem/internal/mem"
)

// Location identifies where a physical address lands in the DRAM organization.
type Location struct {
	Channel int
	Rank    int
	Bank    int
	Row     uint64
	// Col is the line index within the row (used only for stats).
	Col uint64
}

// BankIndex flattens rank and bank into a per-channel bank number.
func (l Location) BankIndex(g Geometry) int { return l.Rank*g.BanksPerRank + l.Bank }

// GlobalBank flattens channel, rank, and bank into a machine-wide bank id.
func (l Location) GlobalBank(g Geometry) int {
	return l.Channel*g.BanksPerChannel() + l.BankIndex(g)
}

// Mapping decomposes physical line addresses into DRAM locations. Schemes
// differ in the LSB-to-MSB order in which address bits feed the fields, and
// optionally permute the bank index with low row bits (the XOR/permutation
// schemes of [106, 107]).
type Mapping struct {
	name    string
	geom    Geometry
	xorBank bool
	// Each field's position in the line index, fixed by NewMapping so
	// that Map only shifts and masks.
	ch, rank, bank, row, col bitField
}

// bitField is one field's bit range within a line index.
type bitField struct {
	shift uint
	mask  uint64
}

func (b bitField) get(line uint64) uint64 { return line >> b.shift & b.mask }

// SchemeNames lists every supported mapping scheme. The first seven are the
// bit-order permutations (DRAMSim2-style, written MSB:LSB with ro=row,
// ra=rank, ba=bank, co=column, ch=channel); the final two add bank-index
// permutation.
func SchemeNames() []string {
	return []string{
		"ro:ra:ba:co:ch", // line-interleaved channels, row-local columns
		"ro:ra:ba:ch:co", // column-local channels, row chunks per channel
		"ro:co:ra:ba:ch", // line-interleaved banks (high BLP, low RBL)
		"ro:ba:ra:co:ch", // like scheme 1 with bank above rank
		"ch:ra:ba:ro:co", // huge contiguous regions per bank
		"ch:ro:ra:ba:co", // row-sized chunks striped over banks per channel
		"ro:ch:ra:ba:co", // row chunks over banks, channels at coarse grain
		"bank-xor",       // scheme 2 + bank XOR row  [106]
		"perm",           // scheme 7 + bank permutation  [107]
	}
}

// NewMapping builds the named scheme for the given geometry.
func NewMapping(name string, g Geometry) (*Mapping, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	m := &Mapping{name: name, geom: g}
	base := name
	switch name {
	case "bank-xor":
		base = "ro:ra:ba:ch:co"
		m.xorBank = true
	case "perm":
		base = "ro:ch:ra:ba:co"
		m.xorBank = true
	}
	parts := strings.Split(base, ":")
	if len(parts) != 5 {
		return nil, fmt.Errorf("dram: unknown mapping scheme %q", name)
	}
	seen := map[string]bool{}
	// parts are MSB-first; consume LSB-first.
	var shift uint
	for i := len(parts) - 1; i >= 0; i-- {
		var f *bitField
		var n int
		switch parts[i] {
		case "ch":
			f, n = &m.ch, bits.Len(uint(g.Channels))-1
		case "ra":
			f, n = &m.rank, bits.Len(uint(g.RanksPerChannel))-1
		case "ba":
			f, n = &m.bank, bits.Len(uint(g.BanksPerRank))-1
		case "ro":
			f, n = &m.row, bits.Len(uint(g.RowsPerBank()))-1
		case "co":
			f, n = &m.col, bits.Len(uint(g.RowBytes/mem.LineBytes))-1
		default:
			return nil, fmt.Errorf("dram: unknown mapping field %q in %q", parts[i], name)
		}
		if seen[parts[i]] {
			return nil, fmt.Errorf("dram: duplicate field %q in %q", parts[i], name)
		}
		seen[parts[i]] = true
		if n < 0 {
			// No rows (capacity below one row per bank): the field
			// takes every remaining bit and the fields above it none.
			*f = bitField{shift: shift, mask: ^uint64(0)}
			shift = 64
			continue
		}
		*f = bitField{shift: shift, mask: 1<<uint(n) - 1}
		shift += uint(n)
	}
	return m, nil
}

// MustMapping is NewMapping for known-good schemes.
func MustMapping(name string, g Geometry) *Mapping {
	m, err := NewMapping(name, g)
	if err != nil {
		panic(err)
	}
	return m
}

// Name returns the scheme name.
func (m *Mapping) Name() string { return m.name }

// Map decomposes pa.
func (m *Mapping) Map(pa mem.Addr) Location {
	line := mem.LineIndex(pa)
	loc := Location{
		Channel: int(m.ch.get(line)),
		Rank:    int(m.rank.get(line)),
		Bank:    int(m.bank.get(line)),
		Row:     m.row.get(line),
		Col:     m.col.get(line),
	}
	if m.xorBank && m.geom.BanksPerRank > 1 {
		loc.Bank ^= int(loc.Row) & (m.geom.BanksPerRank - 1)
	}
	return loc
}

// Geometry returns the geometry the mapping was built for.
func (m *Mapping) Geometry() Geometry { return m.geom }
