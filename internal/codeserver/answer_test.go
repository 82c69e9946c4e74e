package codeserver

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzResponseJSON holds the fixed-shape encoder to its reference: for any
// field values, each of the three 200 answers it writes — RunResult,
// RunStreamResult, CompileResponse — has the status, headers and body
// WriteJSON gives the same value, byte for byte. The seeds are the strings
// encoding/json rewrites (control bytes, quote and backslash, <, > and &,
// U+2028 and U+2029, invalid UTF-8, a surrogate's UTF-8 encoding, an
// overlong encoding) and the int64 extremes.
func FuzzResponseJSON(f *testing.F) {
	f.Add(true, "42\n", "", "", "", int64(12), int64(3), false)
	f.Add(false, "<a&b>\u2028\u2029</a>", "rt: step limit exceeded", "step_limit",
		strings.Repeat("0f", 32), int64(math.MaxInt64), int64(math.MinInt64), true)
	f.Add(true, "\x00\x01\b\f\n\r\t\x1f\x7f\"\\/", "\xff\xfe\x80", "\xed\xa0\x80\xed\xbf\xbf", "\xc0\xaf\xe2\x80",
		int64(-1), int64(0), true)
	f.Add(false, "caf\u00e9 \U0001F600 \ufffd", "uncaught exception: IndexOutOfBoundsException: string index 9", "deadline",
		"", int64(math.MinInt64), int64(math.MaxInt64), false)
	f.Fuzz(func(t *testing.T, ok bool, output, errText, kill, hash string, steps, allocs int64, cached bool) {
		run := RunResult{OK: ok, Output: output, Error: errText, Kill: kill, Steps: steps, Allocs: allocs}
		sameAsWriteJSON(t, appendRunResult(nil, &run), run)
		stream := RunStreamResult{RunResult: run, Hash: hash}
		sameAsWriteJSON(t, appendRunStreamResult(nil, &stream), stream)
		compiled := CompileResponse{Hash: hash, Size: int(steps), Instructions: int(allocs), Optimized: ok, Cached: cached}
		sameAsWriteJSON(t, appendCompileResponse(nil, &compiled), compiled)
	})
}

// sameAsWriteJSON fails t unless writeAnswer(body) answers what WriteJSON
// answers for v.
func sameAsWriteJSON(t *testing.T, body []byte, v any) {
	t.Helper()
	want, got := httptest.NewRecorder(), httptest.NewRecorder()
	WriteJSON(want, http.StatusOK, v)
	writeAnswer(got, body)
	if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%T %+v:\nencoder  %d %q\nWriteJSON %d %q", v, v, got.Code, got.Body, want.Code, want.Body)
	}
	if g, w := got.Header(), want.Header(); len(g) != len(w) || g.Get("Content-Type") != w.Get("Content-Type") {
		t.Fatalf("%T: headers %v, WriteJSON's %v", v, g, w)
	}
}
