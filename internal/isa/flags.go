package isa

import "strings"

// Flag identifies a single x86 status flag. Individual flags matter because
// many instructions read or write only a subset of the flags: TEST writes all
// status flags except AF, CMC reads and writes only CF, and so on. The
// benchmark generator must know the exact subset to break or create
// dependencies through the flags register.
type Flag int

// Status flags in RFLAGS.
const (
	FlagCF Flag = iota // carry
	FlagPF             // parity
	FlagAF             // auxiliary carry
	FlagZF             // zero
	FlagSF             // sign
	FlagOF             // overflow
	NumFlags
)

var flagNames = [...]string{"CF", "PF", "AF", "ZF", "SF", "OF"}

func (f Flag) String() string {
	if f >= 0 && int(f) < len(flagNames) {
		return flagNames[f]
	}
	return "Flag?"
}

// FlagSet is a bit set of status flags.
type FlagSet uint8

// Common flag sets.
const (
	FlagSetNone FlagSet = 0
	FlagSetCF   FlagSet = 1 << FlagCF
	FlagSetPF   FlagSet = 1 << FlagPF
	FlagSetAF   FlagSet = 1 << FlagAF
	FlagSetZF   FlagSet = 1 << FlagZF
	FlagSetSF   FlagSet = 1 << FlagSF
	FlagSetOF   FlagSet = 1 << FlagOF
	FlagSetAll  FlagSet = FlagSetCF | FlagSetPF | FlagSetAF | FlagSetZF | FlagSetSF | FlagSetOF
	FlagSetNoAF FlagSet = FlagSetAll &^ FlagSetAF
)

// Has reports whether the set contains f.
func (s FlagSet) Has(f Flag) bool { return s&(1<<f) != 0 }

// With returns the set with f added.
func (s FlagSet) With(f Flag) FlagSet { return s | (1 << f) }

// Without returns the set with f removed.
func (s FlagSet) Without(f Flag) FlagSet { return s &^ (1 << f) }

// Empty reports whether the set contains no flags.
func (s FlagSet) Empty() bool { return s == 0 }

// Count returns the number of flags in the set.
func (s FlagSet) Count() int {
	n := 0
	for f := Flag(0); f < NumFlags; f++ {
		if s.Has(f) {
			n++
		}
	}
	return n
}

// Flags returns the individual flags in the set, in canonical order.
func (s FlagSet) Flags() []Flag {
	out := make([]Flag, 0, 6)
	for f := Flag(0); f < NumFlags; f++ {
		if s.Has(f) {
			out = append(out, f)
		}
	}
	return out
}

// String renders the set as a "+"-joined list of flag names, or "-" if empty.
func (s FlagSet) String() string {
	if s.Empty() {
		return "-"
	}
	parts := make([]string, 0, 6)
	for f := Flag(0); f < NumFlags; f++ {
		if s.Has(f) {
			parts = append(parts, f.String())
		}
	}
	return strings.Join(parts, "+")
}

// ParseFlagSet parses the format produced by String. Unknown flag names are
// ignored.
func ParseFlagSet(s string) FlagSet {
	if s == "" || s == "-" {
		return FlagSetNone
	}
	var out FlagSet
	for _, part := range strings.Split(s, "+") {
		for f := Flag(0); f < NumFlags; f++ {
			if flagNames[f] == part {
				out = out.With(f)
			}
		}
	}
	return out
}
