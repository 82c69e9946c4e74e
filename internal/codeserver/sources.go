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
	"unsafe"

	"safetsa/internal/core"
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

// parseCompileRequest turns the /compile body in m into its source set and
// the options it asks for. encoding/json is the reference parser and the
// only source of an error; scanCompileRequest is a fast spelling of its
// common case, and whatever that declines goes to the reference unchanged.
// The set is valid while m is: its views point into m.
func parseCompileRequest(m *requestMem) (SourceSet, Options, error) {
	if ss, opts, ok := scanCompileRequest(m.body, m); ok {
		return ss, opts, nil
	}
	var req CompileRequest
	if err := json.Unmarshal(m.body, &req); err != nil {
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
// views into body, the others are unescaped into m.text, which the bytes
// they were scanned from always outnumber, and the views are kept in
// m.files.
func scanCompileRequest(body []byte, m *requestMem) (SourceSet, Options, bool) {
	sc := reqScanner{body: body, buf: m.text[:0]}
	ss := SourceSet{files: m.files[:0]}
	var opts Options
	var seen [3]bool // files, optimize, module_opt: each at most once
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
			return once(&seen[0]) && sc.object(file)
		case "optimize":
			return once(&seen[1]) && sc.flag(&opts.Optimize)
		case "module_opt":
			return once(&seen[2]) && sc.flag(&opts.ModuleOpt)
		}
		return false
	})
	m.text, m.files = sc.buf, ss.files
	return ss, opts, sc.end(shaped) && ss.sort()
}

// scanRunRequest recognises a /run body in the canonical shape,
//
//	{"max_steps":int,"max_allocs":int,"tenant":string}
//
// with every member optional, in any order and at most once, JSON
// whitespace between tokens, integers that fit an int64 written without
// fraction or exponent, the tenant a string as scanCompileRequest reads
// one, and nothing after the closing brace. On those bodies the reference,
// a json.Decoder, yields the same request (FuzzRunRequest holds the two
// together). It declines every shape the Decoder reads differently from a
// plain reading — bytes after the first value, which it ignores; a member
// named in other case, which it matches; an unknown member, which it
// skips; null — and whatever the Decoder refuses, so that the reference
// decides all of them. The tenant is unescaped into m.text when it has to
// be.
func scanRunRequest(body []byte, m *requestMem) (RunRequest, bool) {
	sc := reqScanner{body: body, buf: m.text[:0]}
	var req RunRequest
	var seen [3]bool // max_steps, max_allocs, tenant
	shaped := sc.object(func() bool {
		member, ok := sc.str()
		if !ok || !sc.open(':') {
			return false
		}
		switch string(member) {
		case "max_steps":
			return once(&seen[0]) && sc.integer(&req.MaxSteps)
		case "max_allocs":
			return once(&seen[1]) && sc.integer(&req.MaxAllocs)
		case "tenant":
			tenant, ok := sc.str()
			req.Tenant = string(tenant)
			return once(&seen[2]) && ok
		}
		return false
	})
	m.text = sc.buf
	return req, sc.end(shaped)
}

// once marks a member seen and reports whether it was not before.
func once(seen *bool) bool {
	dup := *seen
	*seen = true
	return !dup
}

// reqScanner is the request scanners' cursor over a body.
type reqScanner struct {
	body []byte
	pos  int
	// buf holds the text of every string that needed unescaping. At the
	// first such string it is given room for the rest of the body, which
	// no unescaping can outgrow: every escape is longer than what it
	// stands for.
	buf []byte
}

// end reports whether a body whose value scanned as shaped holds nothing
// after it but whitespace.
func (sc *reqScanner) end(shaped bool) bool {
	sc.space()
	return shaped && sc.pos == len(sc.body)
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

// integer skips whitespace and scans an integer that fits an int64 into dst:
// an optional minus, then 0 or a digit run without a leading zero. A
// fraction, an exponent or more than 19 digits is declined, and the
// reference decides.
func (sc *reqScanner) integer(dst *int64) bool {
	sc.space()
	b := sc.body[sc.pos:]
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	n := 0
	for n < len(b) && '0' <= b[n] && b[n] <= '9' {
		n++
	}
	if n == 0 || n > 19 || (b[0] == '0' && n > 1) {
		return false
	}
	if n < len(b) && (b[n] == '.' || b[n] == 'e' || b[n] == 'E') {
		return false
	}
	var u uint64 // 19 digits fit
	for _, c := range b[:n] {
		u = u*10 + uint64(c-'0')
	}
	switch {
	case neg && u <= 1<<63:
		*dst = int64(-u)
	case !neg && u < 1<<63:
		*dst = int64(u)
	default:
		return false
	}
	if neg {
		n++
	}
	sc.pos += n
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
			sc.buf = room(sc.buf, len(b)-start) // only the first escape finds too little
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

// readBody appends what r sends to buf until r ends or buf holds limit+1
// bytes, whichever comes first, and returns buf with what it read even
// when the read failed. The buffer grows with the bytes received:
// declared, the length the request's header announces, only picks the room
// made before the first read, and never more than bodyPresize — a header
// may declare 8 MiB and deliver one byte.
func readBody(buf []byte, r io.Reader, declared, limit int64) ([]byte, error) {
	buf = room(buf, int(min(max(declared, 511), limit, bodyPresize)+1))
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
			return buf, err
		}
	}
	return buf, nil
}

// room returns buf with room for n more bytes, in a buffer made to measure
// when it has less.
func room(buf []byte, n int) []byte {
	if cap(buf)-len(buf) < n {
		buf = append(make([]byte, 0, len(buf)+n), buf...)
	}
	return buf
}

// requestMem is what one request to a hot door reads its body into and
// writes its 200 answer from, and keeps nothing of once it has answered.
// Requests share them through requestBodies, which keeps none that a
// request grew past maxKeptRequest: one huge body must not pin its memory
// in the stock.
type requestMem struct {
	// body is the request body: the JSON of /compile and /run as read, a
	// /run-stream unit as its cursor consumed it (Write is the tee).
	body []byte
	// text holds the request's strings that needed unescaping, and files
	// a compile body's views into body and text.
	text  []byte
	files []sourceFile
	// answer is the 200 answer, encoded (answer.go).
	answer []byte
}

var requestBodies = core.NewStock("codeserver.request_bodies", maxKeptRequest, func() *requestMem { return new(requestMem) })

const maxKeptRequest = 1 << 20

// Write appends p to the body.
func (m *requestMem) Write(p []byte) (int, error) {
	m.body = append(m.body, p...)
	return len(p), nil
}

// Rewind empties the buffers — junk first while core.Poisoning, so that
// whatever kept a view of the request without copying it reads junk — and
// reports what they hold.
func (m *requestMem) Rewind() int {
	if core.Poisoning() {
		core.Poison(m.body)
		core.Poison(m.text)
		core.Poison(m.files)
		core.Poison(m.answer)
	}
	m.body, m.text, m.files, m.answer = m.body[:0], m.text[:0], m.files[:0], m.answer[:0]
	return cap(m.body) + cap(m.text) + cap(m.files)*int(unsafe.Sizeof(sourceFile{})) + cap(m.answer)
}

// maxRunBody bounds what /run reads of its body, the JSON of a RunRequest.
const maxRunBody = 1 << 16

// parseRunRequest reads a /run body of at most maxRunBody bytes into m and
// decodes it. A json.Decoder over those bytes is the reference parser and
// the only source of an error; scanRunRequest is a fast spelling of its
// common case, and whatever that declines goes to the reference. The
// Decoder reads the stream the body gave — the bytes, then the read's
// error if it failed — and an empty one is the zero request.
func parseRunRequest(m *requestMem, body io.Reader, declared int64) (RunRequest, error) {
	var rerr error
	m.body, rerr = readBody(m.body, body, declared, maxRunBody-1)
	if rerr == nil {
		if req, ok := scanRunRequest(m.body, m); ok {
			return req, nil
		}
	}
	var src io.Reader = bytes.NewReader(m.body)
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	var req RunRequest
	if err := json.NewDecoder(src).Decode(&req); err != nil && err != io.EOF {
		return RunRequest{}, err
	}
	return req, nil
}
