package codeserver

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Options selects the producer pipeline variant a unit was built with.
// The options participate in the content hash: the same sources compiled
// with and without optimization are distinct units.
type Options struct {
	Optimize bool `json:"optimize"`
	// ModuleOpt selects the interprocedural optimizer tier (CHA/RTA
	// devirtualization, inlining) on top of the intraprocedural
	// pipeline. Implies Optimize.
	ModuleOpt bool `json:"module_opt"`
	// WireV2 encodes the unit in wire format v2 (adaptive range-coded
	// streams). The wire version is part of the unit's identity: the
	// same sources at v1 and v2 are distinct units with distinct bytes.
	WireV2 bool `json:"wire_v2"`
}

// pipelineVersion is folded into every key so that a pipeline change
// (new optimizer, new wire format) invalidates previously stored units
// instead of serving stale code.
const pipelineVersion = "safetsa-pipeline-v9"

// Key is the content address of a distribution unit: the SHA-256 of the
// pipeline version, the options, and the full, order-independent source
// set (names and contents, length-delimited so concatenation cannot
// collide).
type Key [sha256.Size]byte

// KeyFor computes the content address of a compile request given as a
// file map; SourceSet.Key is the one hashing routine.
func KeyFor(files map[string]string, opts Options) Key { return SourcesOf(files).Key(opts) }

// KeyForWire computes the content address of a unit delivered as raw
// wire bytes (the streaming run path, where no source set exists). The
// domain is separated from KeyFor so source-addressed and
// wire-addressed units can never collide.
func KeyForWire(data []byte) Key {
	h := sha256.New()
	h.Write([]byte(pipelineVersion + "/wire\x00"))
	h.Write(data)
	var k Key
	h.Sum(k[:0])
	return k
}

// String renders the key as lowercase hex — the {hash} path segment of
// the HTTP API.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the hex form produced by Key.String.
func ParseKey(s string) (Key, error) {
	var k Key
	if len(s) != hex.EncodedLen(len(k)) {
		return k, fmt.Errorf("codeserver: bad unit hash %q", s)
	}
	if _, err := hex.Decode(k[:], []byte(s)); err != nil {
		return k, fmt.Errorf("codeserver: bad unit hash %q: %v", s, err)
	}
	return k, nil
}
