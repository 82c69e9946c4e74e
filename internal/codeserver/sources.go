package codeserver

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"io"
	"math/bits"
	"slices"
	"unicode/utf8"
)

// SourceSet is a compile request's sources: (name, text) pairs sorted by
// name, no name twice. The pairs are views into the memory they were
// scanned from, so establishing a request's content address allocates no
// map and no per-file string; Files, which does, is for the one caller
// that hands the sources to the producer.
type SourceSet struct {
	files []sourceFile
}

type sourceFile struct{ name, src []byte }

// Files materialises the set as the map the producer pipeline takes.
func (ss SourceSet) Files() map[string]string {
	m := make(map[string]string, len(ss.files))
	for _, f := range ss.files {
		m[string(f.name)] = string(f.src)
	}
	return m
}

// Key computes the content address of compiling the set under opts: the
// SHA-256 of the pipeline version, the options, and every name and text
// in name order, each length-delimited so concatenation cannot collide.
func (ss SourceSet) Key(opts Options) Key {
	h := sha256.New()
	b := binary.AppendUvarint(make([]byte, 0, 64), uint64(len(pipelineVersion)))
	b = append(b, pipelineVersion...)
	for _, on := range [...]bool{opts.Optimize, opts.ModuleOpt, opts.WireV2} {
		if on {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	h.Write(b)
	for _, f := range ss.files {
		for _, s := range [...][]byte{f.name, f.src} {
			h.Write(binary.AppendUvarint(b[:0], uint64(len(s))))
			h.Write(s)
		}
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// SourcesOf is the source set of a file map: the texts copied once into
// one buffer, the views sorted.
func SourcesOf(files map[string]string) SourceSet {
	n := 0
	for name, src := range files {
		n += len(name) + len(src)
	}
	buf := make([]byte, 0, n)
	ss := SourceSet{files: make([]sourceFile, 0, len(files))}
	for name, src := range files {
		buf = append(buf, name...)
		mid := len(buf)
		buf = append(buf, src...)
		ss.files = append(ss.files, sourceFile{
			name: buf[mid-len(name) : mid : mid],
			src:  buf[mid:len(buf):len(buf)],
		})
	}
	ss.sort()
	return ss
}

// sort orders the files by name and reports whether every name is distinct.
func (ss SourceSet) sort() bool {
	slices.SortFunc(ss.files, func(a, b sourceFile) int { return bytes.Compare(a.name, b.name) })
	for i := 1; i < len(ss.files); i++ {
		if bytes.Equal(ss.files[i-1].name, ss.files[i].name) {
			return false
		}
	}
	return true
}

// parseCompileRequest turns a /compile body into its source set and the
// options it asks for. encoding/json is the reference parser and the only
// source of an error; scanCompileRequest is a fast spelling of its common
// case, and whatever that declines goes to the reference unchanged.
func parseCompileRequest(body []byte) (SourceSet, Options, error) {
	if ss, opts, ok := scanCompileRequest(body); ok {
		return ss, opts, nil
	}
	var req CompileRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return SourceSet{}, Options{}, err
	}
	return SourcesOf(req.Files), Options{Optimize: req.Optimize, ModuleOpt: req.ModuleOpt}, nil
}

// scanCompileRequest recognises a body in the canonical request shape,
//
//	{"files":{string:string,…},"optimize":bool,"module_opt":bool}
//
// with the members in any order and each at most once, JSON whitespace
// between tokens, strings of valid UTF-8 with the eight two-character
// escapes and non-surrogate \uXXXX, no file named twice, and nothing after
// the closing brace. On exactly those bodies json.Unmarshal into a
// CompileRequest succeeds and yields the same files and flags
// (FuzzCompileRequest holds the two together); on anything else — an
// unknown or differently-cased member, null, a duplicate that json would
// merge or overwrite, a surrogate or invalid byte that json would replace
// with U+FFFD, malformed JSON — it reports false and has decided nothing.
//
// It reads the body once, front to back, with no recursion, and sizes
// nothing from what the body declares: strings without an escape are
// views into body, the others are unescaped into one buffer that the
// bytes they were scanned from always outnumber.
func scanCompileRequest(body []byte) (SourceSet, Options, bool) {
	sc := reqScanner{body: body}
	var ss SourceSet
	var opts Options
	var seen [3]bool // files, optimize, module_opt: each at most once
	once := func(i int) bool {
		dup := seen[i]
		seen[i] = true
		return !dup
	}
	file := func() bool {
		name, ok := sc.str()
		if !ok || !sc.open(':') {
			return false
		}
		src, ok := sc.str()
		if ok {
			ss.files = append(ss.files, sourceFile{name, src})
		}
		return ok
	}
	shaped := sc.object(func() bool {
		member, ok := sc.str()
		if !ok || !sc.open(':') {
			return false
		}
		switch string(member) {
		case "files":
			return once(0) && sc.object(file)
		case "optimize":
			return once(1) && sc.flag(&opts.Optimize)
		case "module_opt":
			return once(2) && sc.flag(&opts.ModuleOpt)
		}
		return false
	})
	sc.space()
	return ss, opts, shaped && sc.pos == len(body) && ss.sort()
}

// reqScanner is scanCompileRequest's cursor over the body.
type reqScanner struct {
	body []byte
	pos  int
	// buf holds the text of every string that needed unescaping. It is
	// allocated at the first such string with room for the rest of the
	// body, which no unescaping can outgrow: every escape is longer than
	// what it stands for.
	buf []byte
}

func (sc *reqScanner) space() {
	for sc.pos < len(sc.body) {
		switch sc.body[sc.pos] {
		case ' ', '\t', '\n', '\r':
			sc.pos++
		default:
			return
		}
	}
}

// open skips whitespace and consumes c if it comes next.
func (sc *reqScanner) open(c byte) bool {
	sc.space()
	if sc.pos < len(sc.body) && sc.body[sc.pos] == c {
		sc.pos++
		return true
	}
	return false
}

// object scans {member,…}, member scanning one name:value pair. The two
// objects of the request shape are the only nesting there is.
func (sc *reqScanner) object(member func() bool) bool {
	if !sc.open('{') {
		return false
	}
	if sc.open('}') {
		return true
	}
	for member() {
		if sc.open('}') {
			return true
		}
		if !sc.open(',') {
			break
		}
	}
	return false
}

// flag skips whitespace and scans true or false into dst.
func (sc *reqScanner) flag(dst *bool) bool {
	sc.space()
	rest := sc.body[sc.pos:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst, sc.pos = true, sc.pos+4
	case bytes.HasPrefix(rest, []byte("false")):
		*dst, sc.pos = false, sc.pos+5
	default:
		return false
	}
	return true
}

// str skips whitespace and scans one string, returning its text.
func (sc *reqScanner) str() ([]byte, bool) {
	if !sc.open('"') {
		return nil, false
	}
	b := sc.body
	start := sc.pos
	out := -1 // where in sc.buf this string began, once it had an escape
	for i := start; ; {
		i += plainRun(b[i:])
		if i == len(b) {
			return nil, false
		}
		switch c := b[i]; {
		case c == '"':
			sc.pos = i + 1
			if out < 0 {
				return b[start:i:i], true
			}
			sc.buf = append(sc.buf, b[start:i]...)
			return sc.buf[out:len(sc.buf):len(sc.buf)], true
		case c == '\\':
			if sc.buf == nil {
				sc.buf = make([]byte, 0, len(b)-start)
			}
			if out < 0 {
				out = len(sc.buf)
			}
			sc.buf = append(sc.buf, b[start:i]...)
			n := sc.unescape(b[i:])
			if n == 0 {
				return nil, false
			}
			i += n
			start = i
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && n == 1 {
				return nil, false
			}
			i += n
		default: // a raw control byte
			return nil, false
		}
	}
}

// plainRun reports how many leading bytes of b a JSON string holds as
// they are and one byte each: ASCII from space up, neither quote nor
// backslash.
func plainRun(b []byte) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	i := 0
	for ; i+8 <= len(b); i += 8 {
		// Eight bytes at a time. A byte's high bit ends up set in m when it
		// is not plain — it was set already, or subtracting ' ' wrapped, or
		// xor-ing with '"' or '\\' left zero and subtracting one wrapped. A
		// borrow can also set it in a byte above one that wrapped, but never
		// below, and the first set bit is the one read.
		x := binary.LittleEndian.Uint64(b[i:])
		q, s := x^(ones*'"'), x^(ones*'\\')
		if m := (x | (x - ones*' ') | (q - ones) | (s - ones)) & highs; m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for ; i < len(b); i++ {
		if c := b[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' {
			break
		}
	}
	return i
}

// unescape appends to sc.buf what the escape at the head of b stands for
// and returns the escape's length, 0 when it is not one this scanner takes.
func (sc *reqScanner) unescape(b []byte) int {
	if len(b) < 2 {
		return 0
	}
	c := b[1]
	switch c {
	case '"', '\\', '/':
	case 'b':
		c = '\b'
	case 'f':
		c = '\f'
	case 'n':
		c = '\n'
	case 'r':
		c = '\r'
	case 't':
		c = '\t'
	case 'u':
		if len(b) < 6 {
			return 0
		}
		var r rune
		for _, h := range b[2:6] {
			switch {
			case '0' <= h && h <= '9':
				h -= '0'
			case 'a' <= h && h <= 'f':
				h -= 'a' - 10
			case 'A' <= h && h <= 'F':
				h -= 'A' - 10
			default:
				return 0
			}
			r = r<<4 | rune(h)
		}
		if 0xD800 <= r && r <= 0xDFFF {
			return 0 // half of a pair, or a lone surrogate json replaces
		}
		sc.buf = utf8.AppendRune(sc.buf, r)
		return 6
	default:
		return 0
	}
	sc.buf = append(sc.buf, c)
	return 2
}

// bodyPresize caps the capacity a request body's buffer starts with.
const bodyPresize = 64 << 10

// readBody reads r to its end or to limit+1 bytes, whichever comes first.
// The buffer grows with the bytes received: declared, the length the
// request's header announces, only picks the starting capacity, and never
// one above bodyPresize — a header may declare 8 MiB and deliver one byte.
func readBody(r io.Reader, declared, limit int64) ([]byte, error) {
	buf := make([]byte, 0, min(max(declared, 511), limit, bodyPresize)+1)
	for int64(len(buf)) <= limit {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):min(int64(cap(buf)), limit+1)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}
