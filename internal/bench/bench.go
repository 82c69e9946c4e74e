// Package bench measures the corpus through both pipelines and formats
// the paper's tables: Figure 5 (file sizes and instruction counts for
// Java bytecode vs SafeTSA vs optimized SafeTSA) and Figure 6 (phi,
// null-check, and array-check counts before/after producer-side
// optimization), plus the prose claims of sections 7 and 8.
package bench

import (
	"compress/flate"
	"fmt"
	"strings"

	"safetsa/internal/bytecode"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/opt"
	"safetsa/internal/wire"
)

// Row is the measured result for one corpus unit.
type Row struct {
	Name      string
	Group     string
	Generated bool

	BCSize, TSASize, TSAOptSize       int
	BCInstrs, TSAInstrs, TSAOptInstrs int
	// BCDeflateSize is the class files each deflated at best compression,
	// summed; TSAV2Size the optimized unit in wire v2.
	BCDeflateSize, TSAV2Size int

	PhiBefore, PhiAfter     int
	NullBefore, NullAfter   int
	ArrayBefore, ArrayAfter int

	Stats opt.Stats
	Paper corpus.PaperRow
}

// MeasureUnit compiles one unit through both pipelines and collects every
// table cell.
func MeasureUnit(u corpus.Unit) (Row, error) {
	row := Row{Name: u.Name, Group: u.Group, Generated: u.Generated, Paper: u.Paper}

	prog, err := driver.Frontend(u.Files)
	if err != nil {
		return row, fmt.Errorf("%s: frontend: %w", u.Name, err)
	}
	bc, err := driver.CompileBytecode(prog)
	if err != nil {
		return row, fmt.Errorf("%s: bytecode: %w", u.Name, err)
	}
	row.BCSize = bc.SerializedSize()
	row.BCDeflateSize = deflatedSize(bc)
	row.BCInstrs = bc.NumInstrs()

	mod, err := driver.CompileTSA(prog)
	if err != nil {
		return row, fmt.Errorf("%s: safetsa: %w", u.Name, err)
	}
	row.TSAInstrs = mod.NumInstrs()
	row.TSASize = len(wire.EncodeModule(mod))
	_, row.PhiBefore, row.NullBefore, row.ArrayBefore = opt.Count(mod)

	st, err := driver.OptimizeModule(mod)
	if err != nil {
		return row, fmt.Errorf("%s: optimize: %w", u.Name, err)
	}
	row.Stats = st
	row.TSAOptInstrs = mod.NumInstrs()
	row.TSAOptSize = len(wire.EncodeModule(mod))
	row.TSAV2Size = len(wire.EncodeModuleV2(mod, nil))
	_, row.PhiAfter, row.NullAfter, row.ArrayAfter = opt.Count(mod)
	return row, nil
}

// deflatedSize is what p's class files take deflated one by one at best
// compression, as a JAR stores them.
func deflatedSize(p *bytecode.Program) int {
	n := 0
	for _, cf := range p.Classes {
		var c countingWriter
		// The level is a valid one, and a countingWriter never fails.
		fw, _ := flate.NewWriter(&c, flate.BestCompression)
		_, _ = fw.Write(cf.Serialize())
		_ = fw.Close()
		n += int(c)
	}
	return n
}

// countingWriter counts the bytes written to it.
type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// MeasureAll measures the whole corpus.
func MeasureAll() ([]Row, error) {
	var rows []Row
	for _, u := range corpus.Units() {
		r, err := MeasureUnit(u)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

func pct(before, after int) string {
	if before <= 0 {
		return "N/A"
	}
	d := 100 * (before - after) / before
	if d == 0 {
		return "N/A"
	}
	return fmt.Sprintf("-%d", d)
}

// FormatFig5 renders the Figure 5 table: sizes in bytes and instruction
// counts for the three formats, and two sizes the paper does not have —
// the class files deflated, and the optimized unit in wire v2.
func FormatFig5(rows []Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 5: class files — size in bytes | number of instructions\n")
	fmt.Fprintf(&sb, "%-26s %9s %9s %9s %9s %9s | %8s %8s %8s\n",
		"Class Name", "Bytecode", "BC-defl", "SafeTSA", "TSA-opt", "opt-v2", "Bytecode", "SafeTSA", "TSA-opt")
	group := ""
	for _, r := range rows {
		if r.Paper.BytecodeSize < 0 && r.Paper.PhiBefore >= 0 {
			continue // Figure 6-only row (SourceClass)
		}
		if r.Group != group {
			group = r.Group
			fmt.Fprintf(&sb, "%s\n", group)
		}
		fmt.Fprintf(&sb, "%-26s %9d %9d %9d %9d %9d | %8d %8d %8d\n",
			"  "+r.Name, r.BCSize, r.BCDeflateSize, r.TSASize, r.TSAOptSize, r.TSAV2Size,
			r.BCInstrs, r.TSAInstrs, r.TSAOptInstrs)
	}
	return sb.String()
}

// FormatFig6 renders the Figure 6 table: phi, null-check, and array-check
// instructions before and after producer-side optimization.
func FormatFig6(rows []Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 6: Phi-, Null-Check and Array-Check instructions before/after optimization\n")
	fmt.Fprintf(&sb, "%-26s %7s %6s %5s | %6s %6s %5s | %6s %6s %5s\n",
		"Class Name", "PhiB", "PhiA", "d%", "NullB", "NullA", "d%", "ArrB", "ArrA", "d%")
	group := ""
	for _, r := range rows {
		if r.Paper.PhiBefore < 0 {
			continue // row absent from the paper's Figure 6
		}
		if r.Group != group {
			group = r.Group
			fmt.Fprintf(&sb, "%s\n", group)
		}
		arrB, arrA, arrD := "N/A", "N/A", "N/A"
		if r.ArrayBefore > 0 {
			arrB = fmt.Sprintf("%d", r.ArrayBefore)
			arrA = fmt.Sprintf("%d", r.ArrayAfter)
			arrD = pct(r.ArrayBefore, r.ArrayAfter)
		}
		fmt.Fprintf(&sb, "%-26s %7d %6d %5s | %6d %6d %5s | %6s %6s %5s\n",
			"  "+r.Name,
			r.PhiBefore, r.PhiAfter, pct(r.PhiBefore, r.PhiAfter),
			r.NullBefore, r.NullAfter, pct(r.NullBefore, r.NullAfter),
			arrB, arrA, arrD)
	}
	return sb.String()
}

// ClaimResult is one checked prose claim.
type ClaimResult struct {
	Claim    string
	Paper    string
	Measured string
	Holds    bool
}

// CheckClaims evaluates the paper's prose claims against the measured
// corpus.
func CheckClaims(rows []Row) []ClaimResult {
	var out []ClaimResult
	add := func(claim, paper, measured string, holds bool) {
		out = append(out, ClaimResult{claim, paper, measured, holds})
	}

	// SafeTSA instruction count well below bytecode's in most cases.
	below := 0
	n := 0
	for _, r := range rows {
		if r.BCInstrs == 0 {
			continue
		}
		n++
		if r.TSAInstrs < r.BCInstrs {
			below++
		}
	}
	add("SafeTSA has fewer instructions than bytecode",
		"every Figure 5 row; prose: ~40% fewer in most cases",
		fmt.Sprintf("%d/%d classes below bytecode", below, n), below*2 > n)

	// Optimization reduces SafeTSA instruction count by >10% in most
	// cases, up to 19%.
	over10, maxRed := 0, 0
	for _, r := range rows {
		if r.TSAInstrs == 0 {
			continue
		}
		red := 100 * (r.TSAInstrs - r.TSAOptInstrs) / r.TSAInstrs
		if red >= 10 {
			over10++
		}
		if red > maxRed {
			maxRed = red
		}
	}
	add("optimization shrinks SafeTSA by >10% in most cases",
		">10% typical, up to 19%",
		fmt.Sprintf("%d/%d classes over 10%%, max %d%%", over10, len(rows), maxRed),
		over10*2 >= len(rows))

	// Phi reduction around 30% on average (the DCE claim is 31%).
	totB, totA := 0, 0
	for _, r := range rows {
		totB += r.PhiBefore
		totA += r.PhiAfter
	}
	phiRed := 0
	if totB > 0 {
		phiRed = 100 * (totB - totA) / totB
	}
	add("DCE removes ~31% of phi instructions on average",
		"31% average; rows -9%..-50%",
		fmt.Sprintf("%d%% overall (%d -> %d)", phiRed, totB, totA),
		phiRed >= 15 && phiRed <= 55)

	// Null checks reduced ~30% typically, up to ~73%.
	nb, na := 0, 0
	maxNull := 0
	for _, r := range rows {
		nb += r.NullBefore
		na += r.NullAfter
		if r.NullBefore > 0 {
			red := 100 * (r.NullBefore - r.NullAfter) / r.NullBefore
			if red > maxNull {
				maxNull = red
			}
		}
	}
	nullRed := 0
	if nb > 0 {
		nullRed = 100 * (nb - na) / nb
	}
	add("null checks reduced ~30% typically",
		"-13%..-73%, ~30% typical",
		fmt.Sprintf("%d%% overall, max %d%% (%d -> %d)", nullRed, maxNull, nb, na),
		nullRed >= 15)

	// Array checks reduced up to ~38% on array-heavy classes.
	ab, aa := 0, 0
	for _, r := range rows {
		ab += r.ArrayBefore
		aa += r.ArrayAfter
	}
	arrRed := 0
	if ab > 0 {
		arrRed = 100 * (ab - aa) / ab
	}
	add("array checks reduced on array-heavy classes",
		"up to -38% (Linpack -19%, BigDecimal -38%)",
		fmt.Sprintf("%d%% overall (%d -> %d)", arrRed, ab, aa),
		arrRed > 0)

	// SafeTSA file size no larger than bytecode for most classes.
	smaller := 0
	for _, r := range rows {
		if r.BCSize == 0 {
			continue
		}
		if r.TSASize <= r.BCSize {
			smaller++
		}
	}
	add("SafeTSA is no more voluminous than bytecode",
		"usually smaller, sometimes substantially",
		fmt.Sprintf("%d/%d classes at or below bytecode size", smaller, n), smaller*2 > n)

	return out
}

// FormatClaims renders the claim table.
func FormatClaims(rows []Row) string {
	var sb strings.Builder
	sb.WriteString("Section 7/8 claims, paper vs this reproduction:\n")
	for _, c := range CheckClaims(rows) {
		status := "HOLDS"
		if !c.Holds {
			status = "DIFFERS"
		}
		fmt.Fprintf(&sb, "  [%s] %s\n      paper:    %s\n      measured: %s\n",
			status, c.Claim, c.Paper, c.Measured)
	}
	return sb.String()
}
