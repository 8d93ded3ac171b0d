package xedspec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"uopsinfo/internal/isa"
)

func TestGenerateProducesLargeSet(t *testing.T) {
	instrs := Generate()
	if len(instrs) < 1500 {
		t.Fatalf("generated only %d variants, expected well over 1500", len(instrs))
	}
	seen := make(map[string]bool)
	for _, in := range instrs {
		if in.Name == "" || in.Mnemonic == "" || in.Extension == "" {
			t.Fatalf("incomplete variant: %+v", in)
		}
		if seen[in.Name] {
			t.Fatalf("duplicate variant name %s", in.Name)
		}
		seen[in.Name] = true
	}
}

// fullISAVariants and fullISADigest pin the generated instruction set: the
// number of variants and the sha256 over the Go-syntax dump of every variant
// (name, mnemonic, extension, domain, attributes, and each operand's kind,
// class, width, access, implicit mark, fixed register and flag sets), in
// insertion order. A change to the generator tables that moves them changes
// the instruction model every generation characterizes.
const (
	fullISAVariants = 2067
	fullISADigest   = "ff40b96c265401eaf46f2748f5e5c860939d636b217822206e5cd35350d4ec93"
)

func TestFullISAGolden(t *testing.T) {
	set := MustFullISA()
	if set.Len() != fullISAVariants {
		t.Errorf("full ISA has %d variants, want %d", set.Len(), fullISAVariants)
	}
	h := sha256.New()
	for _, in := range set.Instrs() {
		fmt.Fprintf(h, "%#v\n", *in)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fullISADigest {
		t.Errorf("full ISA digest %s, want %s", got, fullISADigest)
	}
}

func TestGenerateContainsPaperCaseStudyVariants(t *testing.T) {
	set := MustFullISA()
	required := []string{
		"AESDEC_XMM_XMM", "AESDEC_XMM_M128", "AESENC_XMM_XMM",
		"SHLD_R64_R64_I8", "SHLD_R32_R32_I8",
		"MOVQ2DQ_XMM_MM", "MOVDQ2Q_MM_XMM",
		"PBLENDVB_XMM_XMM", "ADC_R64_R64", "SBB_R64_R64",
		"BSWAP_R32", "BSWAP_R64", "CMC", "SAHF",
		"VMINPS_XMM_XMM_XMM", "VHADDPD_XMM_XMM_XMM",
		"PCMPGTB_XMM_XMM", "PCMPGTQ_XMM_XMM",
		"MOVSX_R64_R16", "PSHUFD_XMM_XMM_I8", "MOVSHDUP_XMM_XMM",
		"TEST_R64_R64", "XOR_R64_R64", "MOV_R64_M64", "MOV_M64_R64",
		"DIV_R64", "IDIV_R32", "IMUL_R64_R64",
	}
	for _, name := range required {
		if set.Lookup(name) == nil {
			t.Errorf("required variant %s missing from the generated instruction set", name)
		}
	}
}

func TestGeneratedAttributesAreConsistent(t *testing.T) {
	set := MustFullISA()
	for _, in := range set.Instrs() {
		// Zero idioms must have at least two explicit register operands of
		// the same class.
		if in.MayZeroIdiom {
			regs := 0
			for _, op := range in.ExplicitOperands() {
				if op.Kind == isa.OpReg {
					regs++
				}
			}
			if regs < 2 {
				t.Errorf("%s is marked as a zero idiom but has %d explicit register operands", in.Name, regs)
			}
		}
		// Divider instructions must read something.
		if in.UsesDivider && len(in.SourceOperands()) == 0 {
			t.Errorf("%s uses the divider but has no source operands", in.Name)
		}
		// Every operand that is written must be a register, memory or flags
		// operand (immediates cannot be destinations).
		for _, op := range in.Operands {
			if op.Kind == isa.OpImm && op.Write {
				t.Errorf("%s has a written immediate operand", in.Name)
			}
		}
		// Memory operands of LEA are neither read nor written; all other
		// memory operands must be accessed.
		for _, op := range in.Operands {
			if op.Kind == isa.OpMem && in.Mnemonic != "LEA" && !op.Read && !op.Write {
				t.Errorf("%s has a memory operand that is neither read nor written", in.Name)
			}
		}
	}
}

func TestVariantNamingConvention(t *testing.T) {
	set := MustFullISA()
	add := set.Lookup("ADD_R64_M64")
	if add == nil {
		t.Fatal("ADD_R64_M64 missing")
	}
	expl := add.ExplicitOperands()
	if len(expl) != 2 || expl[0].Class != isa.ClassGPR64 || expl[1].Kind != isa.OpMem {
		t.Errorf("ADD_R64_M64 has unexpected operand shape: %v", expl)
	}
	lockAdd := set.Lookup("LOCK_ADD_M64_R64")
	if lockAdd == nil || !lockAdd.HasLock {
		t.Error("LOCK_ADD_M64_R64 missing or not marked with the LOCK attribute")
	}
	repMovs := set.Lookup("REP_MOVSB")
	if repMovs == nil || !repMovs.HasRep {
		t.Error("REP_MOVSB missing or not marked with the REP attribute")
	}
}

// TestUnknownTableNamesPanic gives each table helper one name it does not
// know. The isa parsers would map each to a default (ClassNone, DomainInt, a
// set without the flag, no attribute, RegNone); the helpers must panic
// instead, so a typo in the generator tables cannot change the set silently.
func TestUnknownTableNamesPanic(t *testing.T) {
	cases := []struct {
		name string
		emit func()
	}{
		{"register class", func() { reg("GPR65", true, false) }},
		{"domain", func() { newBuilder().instr("PADDB", "SSE2", "VECTINT", nil) }},
		{"flag", func() { flags("", "CF+ZX") }},
		{"attribute", func() { newBuilder().instr("XOR", "BASE", "INT", attrs("zero-idom")) }},
		{"register", func() { impReg("RXX", "GPR64", true, false) }},
		{"register of another class", func() { impReg("RAX", "GPR32", true, false) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("unknown %s did not panic", c.name)
				}
			}()
			c.emit()
		})
	}
}
