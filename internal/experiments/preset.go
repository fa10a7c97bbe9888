package experiments

import (
	"fmt"
	"slices"
	"strings"

	"xmem/internal/dram"
	"xmem/internal/workload"
)

// Preset scales the experiment suite. Absolute numbers change with scale;
// the shapes (who wins, by what factor, where crossovers fall) are the
// reproduction target (see EXPERIMENTS.md).
type Preset struct {
	Name string

	// Use case 1 (Figures 4-6).
	// UC1L3 is the L3 capacity the code is tuned for (the paper tunes for
	// 2 MB in Figure 5).
	UC1L3 uint64
	// UC1N is the matrix dimension of the tiled kernels.
	UC1N int
	// UC1Tiles is the tile-size sweep of Figure 4.
	UC1Tiles []uint64
	// UC1Steps is the stencil time-tile depth.
	UC1Steps int
	// UC1Kernels restricts the kernel list (nil = all twelve).
	UC1Kernels []string
	// UC1BandwidthPerCore is the default per-core DRAM bandwidth
	// (Table 3: 2.1 GB/s).
	UC1BandwidthPerCore float64

	// Use case 2 (Figures 7-8).
	// UC2L3 is the L3 capacity.
	UC2L3 uint64
	// UC2Scale scales the synthetic workloads' footprints and lengths.
	UC2Scale float64
	// UC2Workloads restricts the workload list (nil = all 27).
	UC2Workloads []string
	// Schemes is the baseline's physical-mapping search space (§6.3
	// strengthens the baseline with the best of these).
	Schemes []string
	// XMemSchemes are the placement-compatible mappings (page-stable bank
	// bits) the XMem runs may choose between — the same best-of search the
	// baseline gets, restricted to schemes the OS can bank-target.
	XMemSchemes []string
}

// defaultXMemSchemes are the page-bank-stable mappings.
func defaultXMemSchemes() []string {
	return []string{"ro:ra:ba:co:ch", "ro:ra:ba:ch:co", "ro:ch:ra:ba:co", "bank-xor"}
}

// Mini is sized for unit tests and Go benchmarks: seconds, not minutes.
func Mini() Preset {
	return Preset{
		Name:                "mini",
		UC1L3:               128 << 10,
		UC1N:                160,
		UC1Tiles:            []uint64{8 << 10, 64 << 10, 256 << 10, 512 << 10},
		UC1Steps:            4,
		UC1Kernels:          []string{"gemm", "jacobi-2d"},
		UC1BandwidthPerCore: 2.1e9,
		UC2L3:               128 << 10,
		UC2Scale:            0.08,
		UC2Workloads:        []string{"libq", "leslie3d", "mcf", "sc"},
		Schemes:             []string{"ro:ra:ba:co:ch", "ro:co:ra:ba:ch", "bank-xor"},
		XMemSchemes:         []string{"ro:ra:ba:co:ch"},
	}
}

// Fast is the default preset of cmd/xmem-bench: the full kernel and
// workload lists at 8×-reduced scale (minutes).
func Fast() Preset {
	return Preset{
		Name:  "fast",
		UC1L3: 256 << 10,
		UC1N:  320,
		UC1Tiles: []uint64{
			4 << 10, 16 << 10, 64 << 10, 128 << 10,
			256 << 10, 512 << 10, 1 << 20,
		},
		UC1Steps:            6,
		UC1BandwidthPerCore: 2.1e9,
		UC2L3:               256 << 10,
		UC2Scale:            0.3,
		Schemes:             dram.SchemeNames(),
		XMemSchemes:         defaultXMemSchemes(),
	}
}

// Paper approaches the Table 3 scale (hours; see EXPERIMENTS.md).
func Paper() Preset {
	return Preset{
		Name:  "paper",
		UC1L3: 2 << 20,
		UC1N:  640,
		UC1Tiles: []uint64{
			4 << 10, 32 << 10, 128 << 10, 512 << 10,
			1 << 20, 2 << 20, 4 << 20, 8 << 20,
		},
		UC1Steps:            8,
		UC1BandwidthPerCore: 2.1e9,
		UC2L3:               1 << 20,
		UC2Scale:            1.0,
		Schemes:             dram.SchemeNames(),
		XMemSchemes:         defaultXMemSchemes(),
	}
}

// PresetByName resolves "mini", "fast", or "paper".
func PresetByName(name string) (Preset, bool) {
	switch name {
	case "mini":
		return Mini(), true
	case "fast", "":
		return Fast(), true
	case "paper":
		return Paper(), true
	default:
		return Preset{}, false
	}
}

// Filter applies xmem-bench's -kernels and -workloads values, each a
// comma-separated list; an empty value keeps the preset's list. Kernels
// name Figure 4 kernels and workloads name members of the 27-workload
// suite. An unknown, empty or repeated entry is an error that names it,
// and the preset is then unusable.
func (p *Preset) Filter(kernels, workloads string) error {
	var err error
	if kernels != "" {
		p.UC1Kernels, err = filterNames("-kernels", kernels, workload.KernelNames())
	}
	if err == nil && workloads != "" {
		p.UC2Workloads, err = filterNames("-workloads", workloads, workload.SuiteNames())
	}
	return err
}

// filterNames splits list and checks each entry against valid, keeping the
// list's order.
func filterNames(flag, list string, valid []string) ([]string, error) {
	names := strings.Split(list, ",")
	for i, name := range names {
		switch {
		case name == "":
			return nil, fmt.Errorf("%s %q has an empty entry", flag, list)
		case !slices.Contains(valid, name):
			return nil, fmt.Errorf("%s: unknown entry %q; valid entries are %s", flag, name, strings.Join(valid, ", "))
		case slices.Contains(names[:i], name):
			return nil, fmt.Errorf("%s: %q is listed twice", flag, name)
		}
	}
	return names, nil
}
