package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"safetsa/internal/bench"
)

// TestRunExitCodes pins the flag handling: usage errors exit 2 before
// anything is measured, a failed measurement or a printed claim that does
// not hold exits 1, and each selector prints only what it names.
func TestRunExitCodes(t *testing.T) {
	real, err := bench.MeasureAll()
	if err != nil {
		t.Fatal(err)
	}
	good := func() ([]bench.Row, error) { return real, nil }
	// Over an empty corpus no majority claim can hold.
	empty := func() ([]bench.Row, error) { return nil, nil }
	broken := func() ([]bench.Row, error) { return nil, errors.New("frontend: boom") }
	unreached := func() ([]bench.Row, error) {
		t.Error("measured the corpus despite a usage error")
		return nil, nil
	}

	for _, tc := range []struct {
		name    string
		args    []string
		measure func() ([]bench.Row, error)
		code    int
		stdout  []string // substrings wanted on stdout
		absent  []string // substrings that must not appear on stdout
		stderr  string   // substring wanted on stderr
	}{
		{name: "unknown table", args: []string{"-table", "nope"}, measure: unreached, code: 2, stderr: `unknown -table "nope"`},
		{name: "retired wire table", args: []string{"-table", "wire"}, measure: unreached, code: 2, stderr: "unknown -table"},
		{name: "retired json flag", args: []string{"-json", "-"}, measure: unreached, code: 2, stderr: "flag provided but not defined"},
		{name: "stray argument", args: []string{"fig5"}, measure: unreached, code: 2, stderr: "unexpected argument"},
		{name: "measurement fails", args: []string{"-all"}, measure: broken, code: 1, stderr: "boom"},
		{name: "claim fails", args: []string{"-all"}, measure: empty, code: 1, stdout: []string{"DIFFERS"}, stderr: "claim does not hold"},
		{name: "failed claim not printed", args: []string{"-table", "fig5"}, measure: empty, code: 0},
		{name: "fig5", args: []string{"-table", "fig5"}, measure: good, code: 0, stdout: []string{"Figure 5:"}, absent: []string{"Figure 6:", "claims"}},
		{name: "fig6", args: []string{"-table", "fig6"}, measure: good, code: 0, stdout: []string{"Figure 6:"}, absent: []string{"Figure 5:", "claims"}},
		{name: "claims", args: []string{"-claims"}, measure: good, code: 0, stdout: []string{"HOLDS"}, absent: []string{"Figure 5:", "DIFFERS"}},
		{name: "all", args: []string{"-all"}, measure: good, code: 0, stdout: []string{"Figure 5:", "Figure 6:", "HOLDS"}},
		{name: "default", args: nil, measure: good, code: 0, stdout: []string{"Figure 5:", "Figure 6:", "HOLDS"}},
		{name: "experiments", args: []string{"-experiments"}, measure: good, code: 0, stdout: []string{"# Experiments"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr, tc.measure); code != tc.code {
				t.Errorf("exit %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			for _, want := range tc.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q", want)
				}
			}
			for _, not := range tc.absent {
				if strings.Contains(stdout.String(), not) {
					t.Errorf("stdout unexpectedly contains %q", not)
				}
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q lacks %q", stderr.String(), tc.stderr)
			}
		})
	}
}
