package codeserver

import (
	"net/http"
	"strconv"
	"unicode/utf8"
)

// This file encodes the 200 answers of the hot doors — RunResult,
// RunStreamResult, CompileResponse — without reflection, into memory
// borrowed from requestBodies. What it writes is byte for byte what
// WriteJSON, the reference, writes for the same value: encoding/json's
// indented form (two spaces, a newline after the closing brace), with
// <, > and & escaped, U+2028 and U+2029 escaped, and every byte of invalid
// UTF-8 written as the six bytes \ufffd. FuzzResponseJSON holds the two
// together.

// jsonContentType is the Content-Type of a JSON answer, shared by every
// answer so that setting it allocates nothing.
var jsonContentType = []string{"application/json"}

// writeAnswer writes body, an answer this file encoded, as a 200.
func writeAnswer(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func appendRunResult(b []byte, r *RunResult) []byte {
	return closeObject(appendRunMembers(b, r))
}

func appendRunStreamResult(b []byte, r *RunStreamResult) []byte {
	b = appendRunMembers(b, &r.RunResult)
	if r.Hash != "" {
		b = appendString(member(b, "hash"), r.Hash)
	}
	return closeObject(b)
}

func appendCompileResponse(b []byte, r *CompileResponse) []byte {
	b = appendString(member(append(b, '{'), "hash"), r.Hash)
	b = strconv.AppendInt(member(b, "size"), int64(r.Size), 10)
	b = strconv.AppendInt(member(b, "instructions"), int64(r.Instructions), 10)
	b = strconv.AppendBool(member(b, "optimized"), r.Optimized)
	b = strconv.AppendBool(member(b, "cached"), r.Cached)
	return closeObject(b)
}

// appendRunMembers opens an object and writes RunResult's members into it,
// the two omitempty ones only when set.
func appendRunMembers(b []byte, r *RunResult) []byte {
	b = strconv.AppendBool(member(append(b, '{'), "ok"), r.OK)
	b = appendString(member(b, "output"), r.Output)
	if r.Error != "" {
		b = appendString(member(b, "error"), r.Error)
	}
	if r.Kill != "" {
		b = appendString(member(b, "kill"), r.Kill)
	}
	b = strconv.AppendInt(member(b, "steps"), r.Steps, 10)
	return strconv.AppendInt(member(b, "allocs"), r.Allocs, 10)
}

// member begins the next member of the object b is writing: the comma
// after the member before it — there is none when b ends with the opening
// brace, which no member's value ends with — then the indented name.
func member(b []byte, name string) []byte {
	if b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	b = append(b, "\n  \""...)
	b = append(b, name...)
	return append(b, "\": "...)
}

func closeObject(b []byte) []byte { return append(b, "\n}\n"...) }

const hexDigits = "0123456789abcdef"

// appendString writes s as encoding/json writes a string with HTML
// escaping on.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			i++
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				continue
			}
			b = append(b, s[start:i-1]...)
			start = i
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
