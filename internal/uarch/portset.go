package uarch

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// MaxPorts bounds the execution ports of a machine: a PortSet holds ports 0
// to MaxPorts-1, and every per-port table and counter has this many entries.
const MaxPorts = 16

// PortSet is a set of execution ports, bit p standing for port p: the
// paper's port combination. A µop's allowed ports, the combination a
// blocking instruction blocks and the keys of a port usage are PortSets.
//
// A PortSet has one text form, its key: one character per port in ascending
// order, 0-9 for ports 0 to 9 and A-F for ports 10 to 15. So {0, 1, 5} is
// "015", as in the paper's 1*p015, and {10} is "A". The empty set is no
// combination and has no key.
type PortSet uint16

// portChars holds the key character of each port.
const portChars = "0123456789ABCDEF"

// NewPortSet returns the set of the given ports. It panics on a port outside
// [0, MaxPorts).
func NewPortSet(ports ...int) PortSet {
	var s PortSet
	for _, p := range ports {
		if p < 0 || p >= MaxPorts {
			panic(fmt.Sprintf("uarch: port %d outside [0, %d)", p, MaxPorts))
		}
		s |= 1 << uint(p)
	}
	return s
}

// PortsBelow returns the ports 0 to n-1: every port of a machine with n
// ports. n must lie in [0, MaxPorts].
func PortsBelow(n int) PortSet { return PortSet(1<<uint(n) - 1) }

// Has reports whether port p is in the set.
func (s PortSet) Has(p int) bool { return uint(p) < MaxPorts && s&(1<<uint(p)) != 0 }

// Len returns the number of ports in the set.
func (s PortSet) Len() int { return bits.OnesCount16(uint16(s)) }

// SubsetOf reports whether every port of s is in t.
func (s PortSet) SubsetOf(t PortSet) bool { return s&^t == 0 }

// Compare orders sets as the paper lists combinations and Algorithm 1
// visits them: smaller sets first, and sets of one size by key. It returns
// a negative number if s comes first, a positive one if t does, and 0 if
// they are equal.
func (s PortSet) Compare(t PortSet) int {
	if n, m := s.Len(), t.Len(); n != m {
		return n - m
	}
	if s == t {
		return 0
	}
	// Keys of one length differ first at the lowest port that one set holds
	// and the other does not; the set holding it has the smaller character
	// there.
	if s.Has(bits.TrailingZeros16(uint16(s ^ t))) {
		return -1
	}
	return 1
}

// String returns the set's key, or "" for the empty set.
func (s PortSet) String() string {
	var buf [MaxPorts]byte
	return string(s.AppendKey(buf[:0]))
}

// AppendKey appends the set's key to b and returns the extended slice.
func (s PortSet) AppendKey(b []byte) []byte {
	for p := range MaxPorts {
		if s.Has(p) {
			b = append(b, portChars[p])
		}
	}
	return b
}

// MarshalText returns the set's key. The empty set has none: it is an error.
func (s PortSet) MarshalText() ([]byte, error) {
	if s == 0 {
		return nil, errors.New("uarch: the empty port set has no key")
	}
	return s.AppendKey(nil), nil
}

// UnmarshalText sets s to the set whose key is text. Only a key is
// accepted: no empty text, no character other than 0-9 and A-F, and the
// ports in strictly ascending order.
func (s *PortSet) UnmarshalText(text []byte) error {
	var set PortSet
	last := -1
	for _, c := range text {
		p := strings.IndexByte(portChars, c)
		if p <= last { // not a port character, or not above the last port
			return fmt.Errorf("uarch: %q is not a port-set key", text)
		}
		set |= 1 << uint(p)
		last = p
	}
	if set == 0 {
		return errors.New("uarch: an empty port-set key")
	}
	*s = set
	return nil
}

// AppendSorted appends the sets keying m to dst in Compare order and returns
// the extended slice.
func AppendSorted[V any](dst []PortSet, m map[PortSet]V) []PortSet {
	n := len(dst)
	for s := range m {
		dst = append(dst, s)
	}
	slices.SortFunc(dst[n:], PortSet.Compare)
	return dst
}

// Usage is a port usage in the paper's notation: the number of µops bound
// to each port combination.
type Usage map[PortSet]int

// String renders the usage in the paper's notation, combinations in Compare
// order, e.g. "1*p0+1*p015", or "0" for no µops.
func (u Usage) String() string {
	if len(u) == 0 {
		return "0"
	}
	var sets [16]PortSet
	var text [64]byte
	b := text[:0]
	for i, s := range AppendSorted(sets[:0], u) {
		if i > 0 {
			b = append(b, '+')
		}
		b = strconv.AppendInt(b, int64(u[s]), 10)
		b = append(b, "*p"...)
		b = s.AppendKey(b)
	}
	return string(b)
}
