package uarch

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// stringKey is the string key that port combinations had before PortSet, kept
// here as the oracle PortSet must agree with: the ports in ascending order,
// each in decimal.
func stringKey(ports []int) string {
	present := make(map[int]bool, len(ports))
	maxPort := 0
	for _, p := range ports {
		present[p] = true
		if p > maxPort {
			maxPort = p
		}
	}
	key := ""
	for p := 0; p <= maxPort; p++ {
		if present[p] {
			key += fmt.Sprintf("%d", p)
		}
	}
	return key
}

// compareStringKeys is the order of the string keys: by length, then
// lexicographically.
func compareStringKeys(a, b string) int {
	if len(a) != len(b) {
		return len(a) - len(b)
	}
	return strings.Compare(a, b)
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// TestPortSetMatchesStringKeys checks PortSet against the string keys it
// replaces: for every set of ports 0-7, String is the old key, Compare orders
// every pair as the old keys were ordered, and the key reads back as the
// set. Non-keys are refused.
func TestPortSetMatchesStringKeys(t *testing.T) {
	keys := make([]string, 256)
	for mask := range 256 {
		var ports []int
		for p := range 8 {
			if mask&(1<<p) != 0 {
				ports = append(ports, p)
			}
		}
		s := NewPortSet(ports...)
		if PortSet(mask) != s {
			t.Fatalf("NewPortSet(%v) = %#x, want %#x", ports, uint16(s), mask)
		}
		keys[mask] = stringKey(ports)
		if got := s.String(); got != keys[mask] {
			t.Errorf("%v: String = %q, want %q", ports, got, keys[mask])
		}
		if mask == 0 {
			continue
		}
		var back PortSet
		if err := back.UnmarshalText([]byte(keys[mask])); err != nil || back != s {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", keys[mask], back, err, ports)
		}
	}
	for a := range 256 {
		for b := range 256 {
			got, want := PortSet(a).Compare(PortSet(b)), compareStringKeys(keys[a], keys[b])
			if sign(got) != sign(want) {
				t.Fatalf("Compare(%q, %q) = %d, want the sign of %d", keys[a], keys[b], got, want)
			}
		}
	}
	for _, text := range []string{"", "510", "00", "p0", "G", "a", "0,1", "1 "} {
		var s PortSet
		if err := s.UnmarshalText([]byte(text)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted it as %v", text, s)
		}
	}
}

// TestPortSetHighPorts checks the keys of ports 10 to 15, which decimal
// string keys could not name.
func TestPortSetHighPorts(t *testing.T) {
	for _, tc := range []struct {
		ports []int
		key   string
	}{
		{[]int{10}, "A"},
		{[]int{1, 0}, "01"},
		{[]int{0, 9, 10, 15}, "09AF"},
		{[]int{15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, "0123456789ABCDEF"},
	} {
		s := NewPortSet(tc.ports...)
		if got := s.String(); got != tc.key {
			t.Errorf("%v: key %q, want %q", tc.ports, got, tc.key)
		}
		var back PortSet
		if err := back.UnmarshalText([]byte(tc.key)); err != nil || back != s {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", tc.key, back, err, tc.ports)
		}
	}
	if PortsBelow(MaxPorts).Len() != MaxPorts || PortsBelow(0) != 0 || PortsBelow(6) != NewPortSet(0, 1, 2, 3, 4, 5) {
		t.Error("PortsBelow does not hold exactly the ports below its bound")
	}
	if NewPortSet(0, 9).Compare(NewPortSet(0, 10)) >= 0 || NewPortSet(10).Compare(NewPortSet(0, 1)) >= 0 {
		t.Error("Compare does not put port 9 before port 10, or a larger set first")
	}
	if _, err := PortSet(0).MarshalText(); err == nil {
		t.Error("the empty set marshals to a key")
	}
}

// TestUsageString checks the paper's notation and the JSON form of a usage,
// whose keys are the sets' keys in key order.
func TestUsageString(t *testing.T) {
	u := Usage{NewPortSet(0, 1, 5): 3, NewPortSet(2, 3): 1, NewPortSet(4): 2}
	if got := u.String(); got != "2*p4+1*p23+3*p015" {
		t.Errorf("String = %q, want 2*p4+1*p23+3*p015", got)
	}
	if got := Usage(nil).String(); got != "0" {
		t.Errorf("String of no usage = %q, want 0", got)
	}
	b, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"015":3,"23":1,"4":2}`; string(b) != want {
		t.Errorf("JSON %s, want %s", b, want)
	}
	var back Usage
	if err := json.Unmarshal(b, &back); err != nil || back.String() != u.String() {
		t.Errorf("JSON reads back as %v, %v", back, err)
	}
	if err := json.Unmarshal([]byte(`{"510":1}`), &back); err == nil {
		t.Error("JSON with a key that is not canonical was accepted")
	}
}

// FuzzPortSetText holds UnmarshalText to never panicking and to accepting
// exactly the keys MarshalText writes, each read back as its set.
func FuzzPortSetText(f *testing.F) {
	for _, seed := range []string{"015", "0156", "A", "09AF", "0123456789ABCDEF", "", "510", "00", "p0", "G", "a", "0\x00"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, text []byte) {
		var s PortSet
		if err := s.UnmarshalText(text); err == nil {
			key, err := s.MarshalText()
			if err != nil || !bytes.Equal(key, text) {
				t.Fatalf("accepted %q as %#x, whose key is %q (%v)", text, uint16(s), key, err)
			}
		}
		if len(text) < 2 {
			return
		}
		// The converse, for the set the first two bytes spell.
		want := PortSet(binary.LittleEndian.Uint16(text))
		key, err := want.MarshalText()
		if want == 0 {
			if err == nil {
				t.Fatalf("the empty set marshals to %q", key)
			}
			return
		}
		var got PortSet
		if err != nil || got.UnmarshalText(key) != nil || got != want {
			t.Fatalf("%#x marshals to %q (%v), which reads back as %#x", uint16(want), key, err, uint16(got))
		}
	})
}
