// Package scanner implements the lexer for TJ source text.
package scanner

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"safetsa/internal/lang/token"
)

// Error is a lexical error with its source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Scanner tokenizes a single TJ source file.
type Scanner struct {
	file string
	src  string
	off  int // byte offset of the next rune
	line int
	col  int
	errs []error
}

// New returns a scanner over src; file is used in positions.
func New(file, src string) *Scanner {
	return &Scanner{file: file, src: src, line: 1, col: 1}
}

// Errors returns the lexical errors encountered so far.
func (s *Scanner) Errors() []error { return s.errs }

func (s *Scanner) errorf(pos token.Pos, format string, args ...interface{}) {
	s.errs = append(s.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (s *Scanner) pos() token.Pos {
	return token.Pos{File: s.file, Line: s.line, Col: s.col}
}

func (s *Scanner) peek() byte {
	if s.off >= len(s.src) {
		return 0
	}
	return s.src[s.off]
}

func (s *Scanner) peek2() byte {
	if s.off+1 >= len(s.src) {
		return 0
	}
	return s.src[s.off+1]
}

func (s *Scanner) advance() byte {
	if s.off >= len(s.src) {
		return 0
	}
	c := s.src[s.off]
	s.off++
	if c == '\n' {
		s.line++
		s.col = 1
	} else {
		s.col++
	}
	return c
}

func (s *Scanner) skipSpaceAndComments() {
	for s.off < len(s.src) {
		switch c := s.peek(); {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			s.advance()
		case c == '/' && s.peek2() == '/':
			for s.off < len(s.src) && s.peek() != '\n' {
				s.advance()
			}
		case c == '/' && s.peek2() == '*':
			start := s.pos()
			s.advance()
			s.advance()
			closed := false
			for s.off < len(s.src) {
				if s.peek() == '*' && s.peek2() == '/' {
					s.advance()
					s.advance()
					closed = true
					break
				}
				s.advance()
			}
			if !closed {
				s.errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || c >= utf8.RuneSelf
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || ('a' <= c && c <= 'f') || ('A' <= c && c <= 'F')
}

// Next returns the next token; at end of input it returns an EOF token
// indefinitely.
func (s *Scanner) Next() token.Token {
	s.skipSpaceAndComments()
	pos := s.pos()
	if s.off >= len(s.src) {
		return token.At(token.EOF, "", pos)
	}
	c := s.peek()
	switch {
	case isIdentStart(c):
		return s.scanIdent(pos)
	case isDigit(c):
		return s.scanNumber(pos)
	case c == '\'':
		return s.scanChar(pos)
	case c == '"':
		return s.scanString(pos)
	}
	return s.scanOperator(pos)
}

func (s *Scanner) scanIdent(pos token.Pos) token.Token {
	start := s.off
	for s.off < len(s.src) && isIdentPart(s.peek()) {
		if s.peek() >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s.src[s.off:])
			if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
				break
			}
			for i := 0; i < size; i++ {
				s.advance()
			}
			continue
		}
		s.advance()
	}
	if s.off == start {
		// The byte looked like an identifier start (>= utf8.RuneSelf) but
		// does not decode to a letter or digit; consume the whole rune so
		// the scanner always makes progress.
		r, size := utf8.DecodeRuneInString(s.src[s.off:])
		lit := s.src[s.off : s.off+size]
		for i := 0; i < size; i++ {
			s.advance()
		}
		if r == utf8.RuneError && size == 1 {
			s.errorf(pos, "illegal byte %#x", lit[0])
		} else {
			s.errorf(pos, "illegal character %q", r)
		}
		return token.At(token.ILLEGAL, lit, pos)
	}
	lit := s.src[start:s.off]
	return token.At(token.Lookup(lit), lit, pos)
}

func (s *Scanner) scanNumber(pos token.Pos) token.Token {
	start := s.off
	kind := token.INTLIT
	if s.peek() == '0' && (s.peek2() == 'x' || s.peek2() == 'X') {
		s.advance()
		s.advance()
		if !isHexDigit(s.peek()) {
			s.errorf(pos, "malformed hexadecimal literal")
		}
		for isHexDigit(s.peek()) {
			s.advance()
		}
	} else {
		for isDigit(s.peek()) {
			s.advance()
		}
		if s.peek() == '.' && isDigit(s.peek2()) {
			kind = token.DOUBLELIT
			s.advance()
			for isDigit(s.peek()) {
				s.advance()
			}
		}
		if s.peek() == 'e' || s.peek() == 'E' {
			next := s.peek2()
			expOK := isDigit(next)
			if (next == '+' || next == '-') && s.off+2 < len(s.src) && isDigit(s.src[s.off+2]) {
				expOK = true
			}
			if expOK {
				kind = token.DOUBLELIT
				s.advance() // e
				if s.peek() == '+' || s.peek() == '-' {
					s.advance()
				}
				for isDigit(s.peek()) {
					s.advance()
				}
			}
		}
	}
	if kind == token.INTLIT && (s.peek() == 'L' || s.peek() == 'l') {
		lit := s.src[start:s.off]
		s.advance()
		return token.At(token.LONGLIT, lit, pos)
	}
	if kind == token.DOUBLELIT && (s.peek() == 'd' || s.peek() == 'D') {
		lit := s.src[start:s.off]
		s.advance()
		return token.At(token.DOUBLELIT, lit, pos)
	}
	return token.At(kind, s.src[start:s.off], pos)
}

func (s *Scanner) scanEscape(pos token.Pos) (rune, bool) {
	s.advance() // backslash
	switch c := s.advance(); c {
	case 'n':
		return '\n', true
	case 't':
		return '\t', true
	case 'r':
		return '\r', true
	case 'b':
		return '\b', true
	case 'f':
		return '\f', true
	case '0':
		return 0, true
	case '\\':
		return '\\', true
	case '\'':
		return '\'', true
	case '"':
		return '"', true
	case 'u':
		var v rune
		for i := 0; i < 4; i++ {
			h := s.advance()
			switch {
			case isDigit(h):
				v = v*16 + rune(h-'0')
			case 'a' <= h && h <= 'f':
				v = v*16 + rune(h-'a'+10)
			case 'A' <= h && h <= 'F':
				v = v*16 + rune(h-'A'+10)
			default:
				s.errorf(pos, "malformed \\u escape")
				return 0, false
			}
		}
		return v, true
	default:
		s.errorf(pos, "unknown escape sequence \\%c", c)
		return 0, false
	}
}

func (s *Scanner) scanChar(pos token.Pos) token.Token {
	s.advance() // opening quote
	var r rune
	switch {
	case s.off >= len(s.src):
		s.errorf(pos, "unterminated character literal")
		return token.At(token.ILLEGAL, "", pos)
	case s.peek() == '\\':
		r, _ = s.scanEscape(pos)
	default:
		var size int
		r, size = utf8.DecodeRuneInString(s.src[s.off:])
		for i := 0; i < size; i++ {
			s.advance()
		}
	}
	if s.peek() != '\'' {
		s.errorf(pos, "unterminated character literal")
	} else {
		s.advance()
	}
	return token.At(token.CHARLIT, string(r), pos)
}

func (s *Scanner) scanString(pos token.Pos) token.Token {
	s.advance() // opening quote
	var b strings.Builder
	for {
		if s.off >= len(s.src) || s.peek() == '\n' {
			s.errorf(pos, "unterminated string literal")
			break
		}
		if s.peek() == '"' {
			s.advance()
			break
		}
		if s.peek() == '\\' {
			r, ok := s.scanEscape(pos)
			if ok {
				b.WriteRune(r)
			}
			continue
		}
		b.WriteByte(s.advance())
	}
	return token.At(token.STRINGLIT, b.String(), pos)
}

// twoCharOps maps a leading operator byte to its possible two-character
// extensions.
func (s *Scanner) scanOperator(pos token.Pos) token.Token {
	c := s.advance()
	mk := func(k token.Kind) token.Token { return token.At(k, "", pos) }
	sel := func(next byte, two, one token.Kind) token.Token {
		if s.peek() == next {
			s.advance()
			return mk(two)
		}
		return mk(one)
	}
	switch c {
	case '+':
		if s.peek() == '+' {
			s.advance()
			return mk(token.INC)
		}
		return sel('=', token.ADDASSIGN, token.ADD)
	case '-':
		if s.peek() == '-' {
			s.advance()
			return mk(token.DEC)
		}
		return sel('=', token.SUBASSIGN, token.SUB)
	case '*':
		return sel('=', token.MULASSIGN, token.MUL)
	case '/':
		return sel('=', token.QUOASSIGN, token.QUO)
	case '%':
		return sel('=', token.REMASSIGN, token.REM)
	case '&':
		if s.peek() == '&' {
			s.advance()
			return mk(token.LAND)
		}
		return sel('=', token.ANDASSIGN, token.AND)
	case '|':
		if s.peek() == '|' {
			s.advance()
			return mk(token.LOR)
		}
		return sel('=', token.ORASSIGN, token.OR)
	case '^':
		return sel('=', token.XORASSIGN, token.XOR)
	case '~':
		return mk(token.TILDE)
	case '<':
		if s.peek() == '<' {
			s.advance()
			return sel('=', token.SHLASSIGN, token.SHL)
		}
		return sel('=', token.LEQ, token.LSS)
	case '>':
		if s.peek() == '>' {
			s.advance()
			return sel('=', token.SHRASSIGN, token.SHR)
		}
		return sel('=', token.GEQ, token.GTR)
	case '=':
		return sel('=', token.EQL, token.ASSIGN)
	case '!':
		return sel('=', token.NEQ, token.NOT)
	case '(':
		return mk(token.LPAREN)
	case ')':
		return mk(token.RPAREN)
	case '{':
		return mk(token.LBRACE)
	case '}':
		return mk(token.RBRACE)
	case '[':
		return mk(token.LBRACK)
	case ']':
		return mk(token.RBRACK)
	case ',':
		return mk(token.COMMA)
	case ';':
		return mk(token.SEMI)
	case '.':
		return mk(token.DOT)
	case '?':
		return mk(token.QUESTION)
	case ':':
		return mk(token.COLON)
	}
	s.errorf(pos, "illegal character %q", c)
	return token.At(token.ILLEGAL, string(c), pos)
}

// ScanAll tokenizes the whole input, returning the tokens up to and
// including EOF, plus any lexical errors.
//
// The token vector is allocated once, for a token per three source bytes
// (TJ sources run at 3.5 to 5), and at most once more: every token but
// EOF consumes at least one byte, so when the estimate fills up, the
// bytes still unread bound what is left to come. Its capacity is a
// function of len(src) alone and never exceeds len(src)+1.
func ScanAll(file, src string) ([]token.Token, []error) { return Scan(nil, file, src) }

// Scan is ScanAll into the memory of toks, whose tokens it overwrites:
// toks is used when it has room for ScanAll's estimate, and ScanAll's
// rule allocates otherwise.
func Scan(toks []token.Token, file, src string) ([]token.Token, []error) {
	s := New(file, src)
	if cap(toks) < len(src)/3+1 {
		toks = make([]token.Token, 0, len(src)/3+1)
	}
	toks = toks[:0]
	for {
		if len(toks) == cap(toks) {
			grown := make([]token.Token, len(toks), len(toks)+len(src)-s.off+1)
			copy(grown, toks)
			toks = grown
		}
		t := s.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks, s.Errors()
		}
	}
}
