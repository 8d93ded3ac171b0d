package asmgen_test

import (
	"reflect"
	"testing"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/xedspec"
)

// FuzzParseSequence feeds arbitrary text to ParseSequence, which reads the
// user kernels of cmd/analyze. It must never panic, and a sequence it
// parses must parse again from its String() into the same variants and
// operands, memory addresses included.
func FuzzParseSequence(f *testing.F) {
	set := xedspec.MustFullISA()
	for _, seed := range []string{
		"# a small loop kernel\nADD RAX, RBX\nIMUL RCX, RDX\nMOV RSI, [RDI]\nSHLD RAX, RBX, 5\nADDPS XMM1, XMM2\nMOV [RDI], RSI\nCMC\n",
		"; lower case, odd spacing\n\n  add eax,ebx\n\tADD AX , BX\nadd al, bl\r\n",
		"PSHUFD XMM1, XMM2, 0x1b\nMOVQ2DQ XMM3, MM0\nDIV RBX\nVZEROUPPER\nVADDPS YMM0, YMM1, YMM2",
		"MOV RAX, [RSI]\nMOV [RSI], RAX\nMOV RBX, [RDI]\nADD [RDI], RBX\nMOV RCX, [ rsi ]",
		"ADD RAX, -5\nMOV AL, 0b101\nSHLD RAX, RBX, 1_0",
		"FROBNICATE RAX, RBX", "ADD RAX", "MOV RAX, [EAX]", "ADD RAX, [RBX", "[]", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		seq, err := asmgen.ParseSequence(set, text)
		if err != nil {
			return
		}
		printed := seq.String()
		again, err := asmgen.ParseSequence(set, printed)
		if err != nil {
			t.Fatalf("re-parsing %q: %v", printed, err)
		}
		if len(again) != len(seq) {
			t.Fatalf("%q re-parses into %d instructions, want %d", printed, len(again), len(seq))
		}
		for i := range seq {
			if again[i].Variant != seq[i].Variant || !reflect.DeepEqual(again[i].Ops, seq[i].Ops) {
				t.Fatalf("instruction %d, %q: re-parsed as %s %+v, want %s %+v", i, seq[i],
					again[i].Variant.Name, again[i].Ops, seq[i].Variant.Name, seq[i].Ops)
			}
		}
	})
}
