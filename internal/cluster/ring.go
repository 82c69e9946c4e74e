// Package cluster scales the codeserver from one process to a
// consistent-hash sharded fleet. Placement is by content key: a ring of
// virtual nodes maps every distribution-unit hash to exactly one owner,
// the only node that ever runs the producer pipeline for that key.
// Every other node serves the key by *peer fill* — fetching the encoded
// .tsa bytes from the owner over an internal peer API and re-admitting
// them through the local decode+verify path before caching.
//
// The trust model is the paper's, and no wider: re-establishing type
// safety and referential security of received code costs only local
// counter checks, so a node can accept units from an arbitrarily hostile
// peer at the same price as from a client. Peers ship bytes; admission is
// always local. A corrupted or malicious peer can cause a fill to fail
// (counted, never cached) but can never place unverified code in a
// store tier or an interpreter session. What local admission cannot
// re-establish is identity: that a source-addressed hash names *this*
// safe program is taken from exactly one party, the ring owner this node
// chose to ask. So the peer API only answers requests; nothing can be
// written into a node's store from outside (DESIGN.md §8).
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per member when the config
// does not choose one: enough points that three real nodes split the
// key space within a few percent of evenly.
const DefaultVNodes = 64

// Ring is an immutable consistent-hash ring: every member contributes
// vnodes points, keys land on the first point clockwise from their
// hash. All members build the ring from the same sorted name list, so
// ownership is agreed fleet-wide without coordination.
type Ring struct {
	vnodes int
	names  []string
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds the ring over the given member names (<=0 vnodes means
// DefaultVNodes). Names are sorted and must be unique and non-empty —
// every fleet member must construct an identical ring.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	names := append([]string(nil), nodes...)
	sort.Strings(names)
	r := &Ring{vnodes: vnodes, names: names}
	for i, name := range names {
		if name == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if i > 0 && names[i-1] == name {
			return nil, fmt.Errorf("cluster: duplicate node name %q", name)
		}
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(name, v), node: name})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit collision between two members is vanishingly rare but
		// must still order identically on every node.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// pointHash places virtual node v of a member on the ring. The name is
// length-prefixed so "ab"+"#1" and "a"+"b#1" cannot collide.
func pointHash(node string, v int) uint64 {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(node)))
	h.Write(buf[:n])
	h.Write([]byte(node))
	h.Write([]byte("#" + strconv.Itoa(v)))
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return binary.BigEndian.Uint64(sum[:8])
}

// keyHash places a unit key (its hex content hash) on the ring.
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Owner returns the member that owns key: the only node that compiles
// it, and the node every peer fill for it is directed at.
func (r *Ring) Owner(key string) string {
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the ring is circular
	}
	return r.points[i].node
}

// Nodes returns the sorted member names.
func (r *Ring) Nodes() []string { return append([]string(nil), r.names...) }

// VNodes reports the virtual-node count per member.
func (r *Ring) VNodes() int { return r.vnodes }
