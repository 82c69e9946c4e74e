package bench

import (
	"strings"
	"testing"

	"safetsa/internal/corpus"
)

func measured(t *testing.T) []Row {
	t.Helper()
	rows, err := MeasureAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestMeasureAllShape is the headline reproduction check, asserted rather
// than eyeballed: on every row SafeTSA must carry fewer instructions than
// bytecode, optimization must never grow a module, and the Figure 6
// counters must be monotone.
func TestMeasureAllShape(t *testing.T) {
	rows := measured(t)
	if len(rows) != len(corpus.Units()) {
		t.Fatalf("measured %d rows for %d units", len(rows), len(corpus.Units()))
	}
	for _, r := range rows {
		if r.BCInstrs <= 0 || r.TSAInstrs <= 0 || r.BCSize <= 0 || r.TSASize <= 0 {
			t.Errorf("%s: empty measurement %+v", r.Name, r)
			continue
		}
		if r.TSAInstrs >= r.BCInstrs {
			t.Errorf("%s: SafeTSA has %d instructions vs bytecode's %d",
				r.Name, r.TSAInstrs, r.BCInstrs)
		}
		if r.TSAOptInstrs > r.TSAInstrs {
			t.Errorf("%s: optimization grew instructions %d -> %d",
				r.Name, r.TSAInstrs, r.TSAOptInstrs)
		}
		if r.TSAOptSize > r.TSASize {
			t.Errorf("%s: optimization grew the unit %d -> %d bytes",
				r.Name, r.TSASize, r.TSAOptSize)
		}
		if r.PhiAfter > r.PhiBefore || r.NullAfter > r.NullBefore || r.ArrayAfter > r.ArrayBefore {
			t.Errorf("%s: a Figure 6 counter increased: %+v", r.Name, r)
		}
	}
}

// TestV2WithinDeflatedBytecode: on every row the optimized unit in wire
// v2 is no larger than its class files deflated at best compression.
func TestV2WithinDeflatedBytecode(t *testing.T) {
	for _, r := range measured(t) {
		if r.BCDeflateSize <= 0 || r.TSAV2Size > r.BCDeflateSize {
			t.Errorf("%s: %d B in wire v2, %d B of deflated class files", r.Name, r.TSAV2Size, r.BCDeflateSize)
		}
	}
}

func TestClaimsAllHold(t *testing.T) {
	rows := measured(t)
	for _, c := range CheckClaims(rows) {
		if !c.Holds {
			t.Errorf("claim %q does not hold: %s (paper: %s)", c.Claim, c.Measured, c.Paper)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	rows := measured(t)
	fig5 := FormatFig5(rows)
	if !strings.Contains(fig5, "Linpack") || !strings.Contains(fig5, "sun.math") {
		t.Error("Figure 5 missing groups or rows")
	}
	fig6 := FormatFig6(rows)
	if !strings.Contains(fig6, "SourceClass") {
		t.Error("Figure 6 must include the SourceClass row")
	}
	if strings.Contains(fig6, "ErrorMessage") {
		t.Error("Figure 6 must omit rows the paper omits")
	}
	exp := FormatExperiments(rows)
	for _, want := range []string{"Figure 5", "Figure 6", "HOLDS", "| Linpack |"} {
		if !strings.Contains(exp, want) {
			t.Errorf("experiments report missing %q", want)
		}
	}
}

// TestLinpackRowBrackets pins the flagship row against the paper's
// reported effects with generous tolerances: Linpack's array-check
// reduction must land in (0%, 50%] (paper: 19%) and its null-check
// reduction in [20%, 80%] (paper: 39%).
func TestLinpackRowBrackets(t *testing.T) {
	u, _ := corpus.ByName("Linpack")
	r, err := MeasureUnit(u)
	if err != nil {
		t.Fatal(err)
	}
	arrRed := 100 * (r.ArrayBefore - r.ArrayAfter) / r.ArrayBefore
	if arrRed <= 0 || arrRed > 50 {
		t.Errorf("Linpack array-check reduction %d%% outside (0,50]", arrRed)
	}
	nullRed := 100 * (r.NullBefore - r.NullAfter) / r.NullBefore
	if nullRed < 20 || nullRed > 80 {
		t.Errorf("Linpack null-check reduction %d%% outside [20,80]", nullRed)
	}
	if r.TSAOptInstrs >= r.TSAInstrs {
		t.Error("Linpack optimization removed nothing")
	}
}
