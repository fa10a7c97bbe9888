package experiments

import (
	"fmt"
	"io"
	"strings"

	"xmem/internal/experiments/runner"
)

// mean returns the arithmetic mean of xs (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// maxOf returns the maximum of xs (0 for an empty slice).
func maxOf(xs []float64) float64 {
	out := 0.0
	for _, x := range xs {
		if x > out {
			out = x
		}
	}
	return out
}

// table renders fixed-width rows. The first row is the header.
type table struct {
	rows [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) addf(format string, args ...interface{}) {
	t.add(strings.Split(fmt.Sprintf(format, args...), "\t")...)
}

func (t *table) write(w io.Writer) {
	if len(t.rows) == 0 {
		return
	}
	widths := make([]int, 0)
	for _, row := range t.rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for r, row := range t.rows {
		var b strings.Builder
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := widths[i] - len(c)
			// Right-align numerics (everything after the first column).
			if i == 0 {
				b.WriteString(c)
				b.WriteString(strings.Repeat(" ", pad))
			} else {
				b.WriteString(strings.Repeat(" ", pad))
				b.WriteString(c)
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		if r == 0 {
			total := 0
			for _, wd := range widths {
				total += wd + 2
			}
			fmt.Fprintln(w, strings.Repeat("-", total-2))
		}
	}
}

// sizeLabel prints a byte count compactly (64B, 8KB, 2MB).
func sizeLabel(b uint64) string {
	switch {
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dKB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// sweepName identifies one figure's sweep at one preset; checkpoint files
// and progress lines hang off it.
func sweepName(fig string, p Preset) string { return fig + "/" + p.Name }

// runSweep runs fig's sweep at p and returns the successful results in
// point order, whatever order the workers finished them in. The error
// covers infrastructure problems and failed points.
func runSweep[R any](fig string, p Preset, pts []runner.Point[R], opt runner.Options) ([]R, error) {
	outs, err := runner.Run(sweepName(fig, p), pts, opt)
	if err != nil {
		return nil, err
	}
	return runner.Results(outs), runner.FailErr(outs)
}
