package scanner

import (
	"strings"
	"testing"

	"safetsa/internal/corpus"
	"safetsa/internal/lang/token"
)

func kinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	toks, errs := ScanAll("t.tj", src)
	if len(errs) > 0 {
		t.Fatalf("scan errors: %v", errs)
	}
	out := make([]token.Kind, 0, len(toks))
	for _, tk := range toks {
		out = append(out, tk.Kind)
	}
	return out
}

func expectKinds(t *testing.T, src string, want ...token.Kind) {
	t.Helper()
	got := kinds(t, src)
	want = append(want, token.EOF)
	if len(got) != len(want) {
		t.Fatalf("%q: got %v, want %v", src, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%q: token %d is %v, want %v", src, i, got[i], want[i])
		}
	}
}

func TestOperators(t *testing.T) {
	expectKinds(t, "+ - * / % ++ -- += -= *= /= %=",
		token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
		token.INC, token.DEC, token.ADDASSIGN, token.SUBASSIGN,
		token.MULASSIGN, token.QUOASSIGN, token.REMASSIGN)
	expectKinds(t, "<< >> <<= >>= < <= > >= == != = !",
		token.SHL, token.SHR, token.SHLASSIGN, token.SHRASSIGN,
		token.LSS, token.LEQ, token.GTR, token.GEQ,
		token.EQL, token.NEQ, token.ASSIGN, token.NOT)
	expectKinds(t, "& && | || ^ ~ &= |= ^=",
		token.AND, token.LAND, token.OR, token.LOR, token.XOR, token.TILDE,
		token.ANDASSIGN, token.ORASSIGN, token.XORASSIGN)
	expectKinds(t, "( ) { } [ ] , ; . ? :",
		token.LPAREN, token.RPAREN, token.LBRACE, token.RBRACE,
		token.LBRACK, token.RBRACK, token.COMMA, token.SEMI,
		token.DOT, token.QUESTION, token.COLON)
}

func TestKeywordsAndIdents(t *testing.T) {
	expectKinds(t, "class className int integer",
		token.CLASS, token.IDENT, token.INT, token.IDENT)
	expectKinds(t, "while whileTrue do done",
		token.WHILE, token.IDENT, token.DO, token.IDENT)
}

func TestNumbers(t *testing.T) {
	cases := map[string]token.Kind{
		"0":     token.INTLIT,
		"123":   token.INTLIT,
		"0x1F":  token.INTLIT,
		"5L":    token.LONGLIT,
		"5l":    token.LONGLIT,
		"1.5":   token.DOUBLELIT,
		"1.5e3": token.DOUBLELIT,
		"2e-4":  token.DOUBLELIT,
		"3.25d": token.DOUBLELIT,
	}
	for src, want := range cases {
		toks, errs := ScanAll("t", src)
		if len(errs) > 0 {
			t.Errorf("%q: %v", src, errs)
			continue
		}
		if toks[0].Kind != want {
			t.Errorf("%q scanned as %v, want %v", src, toks[0].Kind, want)
		}
	}
	// "1.foo" must NOT eat the dot as a fraction.
	expectKinds(t, "x.length", token.IDENT, token.DOT, token.IDENT)
}

func TestCharAndStringLiterals(t *testing.T) {
	toks, errs := ScanAll("t", `'a' '\n' '\t' '\\' '\'' 'A' "hi\n\"quoted\""`)
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	wantLits := []string{"a", "\n", "\t", "\\", "'", "A", "hi\n\"quoted\""}
	for i, want := range wantLits {
		if toks[i].Lit != want {
			t.Errorf("literal %d = %q, want %q", i, toks[i].Lit, want)
		}
	}
}

func TestComments(t *testing.T) {
	expectKinds(t, "a // line comment\n b /* block\n comment */ c",
		token.IDENT, token.IDENT, token.IDENT)
	_, errs := ScanAll("t", "/* unterminated")
	if len(errs) == 0 {
		t.Error("unterminated block comment not reported")
	}
}

func TestErrors(t *testing.T) {
	for _, src := range []string{"@", "\"open", "'x", "'\\q'"} {
		_, errs := ScanAll("t", src)
		if len(errs) == 0 {
			t.Errorf("%q: no error reported", src)
		}
	}
}

func TestPositions(t *testing.T) {
	toks, _ := ScanAll("f.tj", "a\n  b")
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("a at %v", toks[0].Pos("f.tj"))
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("b at %v", toks[1].Pos("f.tj"))
	}
	if toks[1].Pos("f.tj").String() != "f.tj:2:3" {
		t.Errorf("pos string %q", toks[1].Pos("f.tj").String())
	}
}

func TestUnicodeIdentifiers(t *testing.T) {
	toks, errs := ScanAll("t", "größe = 1;")
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	if toks[0].Kind != token.IDENT || toks[0].Lit != "größe" {
		t.Errorf("got %v %q", toks[0].Kind, toks[0].Lit)
	}
}

// Non-ASCII bytes that are not letters (invalid UTF-8, control runes like
// U+0080, symbols) must not stall the scanner: every Next call has to
// consume at least one byte, or ScanAll and the parser loop forever.
func TestNonLetterHighBytesMakeProgress(t *testing.T) {
	for _, src := range []string{"\x80", "\xff\xfe", "", "÷", "x \x80 y"} {
		toks, errs := ScanAll("t", src)
		if len(errs) == 0 {
			t.Errorf("%q: no error reported", src)
		}
		if len(toks) > len(src)+1 {
			t.Errorf("%q: %d tokens for %d bytes", src, len(toks), len(src))
		}
	}
}

// TestScanAllAllocatesOnce: the token vector is sized from len(src) alone
// — one allocation for sources of ordinary density, one more when the
// estimate fills up — and never holds room for more than len(src)+1
// tokens, however dense or hostile the source.
func TestScanAllAllocatesOnce(t *testing.T) {
	sources := map[string]string{
		"empty":        "",
		"4 KiB parens": strings.Repeat("(", 4<<10), // a token per byte: the estimate fills up
	}
	for _, u := range corpus.Units() {
		for name, src := range u.Files {
			sources[name] = src
		}
	}
	// The least of several trials: AllocsPerRun truncates its mean, which
	// drops the odd allocation the runtime makes behind a run's back, but
	// not one that lands in every run of a short trial — a collection the
	// tests beside this one set going can.
	least := func(f func()) float64 {
		n := testing.AllocsPerRun(4, f)
		for range 4 {
			n = min(n, testing.AllocsPerRun(4, f))
		}
		return n
	}
	for name, src := range sources {
		// What scanning costs without a vector: the decoded text of
		// string and char literals, and the error list.
		scan := least(func() {
			for s := New(name, src); s.Next().Kind != token.EOF; {
			}
		})
		all := least(func() { ScanAll(name, src) })
		if vec := all - scan; vec > 2 {
			t.Errorf("%s: %v allocations for the token vector, want at most 2", name, vec)
		}
	}
	// One pass each over the hostile shapes: a token per byte, and one
	// token for all of them.
	sources["1 MiB parens"] = strings.Repeat("(", 1<<20)
	sources["1 MiB ident"] = strings.Repeat("a", 1<<20)
	for name, src := range sources {
		toks, _ := ScanAll(name, src)
		if cap(toks) > len(src)+1 {
			t.Errorf("%s: room for %d tokens from %d source bytes", name, cap(toks), len(src))
		}
		if toks[len(toks)-1].Kind != token.EOF {
			t.Errorf("%s: token vector does not end in EOF", name)
		}
	}
}
