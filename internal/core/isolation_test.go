package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/uarch"
)

// kernelCounter is a runner that counts, per divider regime, the
// measurements of one kernel, want, compared by kernelText.
type kernelCounter struct {
	*pipesim.Machine
	want       string
	fastRegime bool
	slow, fast int
}

func (r *kernelCounter) SetDividerValues(v pipesim.DividerValues) {
	r.fastRegime = v == pipesim.FastDividerValues
	r.Machine.SetDividerValues(v)
}

func (r *kernelCounter) RunCopies(code asmgen.Sequence, copies []int, out []pipesim.Counters) error {
	if kernelText(code) == r.want {
		if r.fastRegime {
			r.fast++
		} else {
			r.slow++
		}
	}
	return r.Machine.RunCopies(code, copies, out)
}

// kernelText renders code with its memory addresses numbered by first use,
// so that two kernels the simulator reads alike render alike.
func kernelText(code asmgen.Sequence) string {
	var b strings.Builder
	addrs := map[uint64]int{}
	for _, inst := range code {
		b.WriteString(inst.Variant.Name)
		for _, op := range inst.Ops {
			fmt.Fprintf(&b, " %v/%d", op.Reg, op.Imm)
			if op.IsMem() {
				if _, ok := addrs[op.Mem.Addr]; !ok {
					addrs[op.Mem.Addr] = len(addrs)
				}
				fmt.Fprintf(&b, "/[%v+#%d]", op.Mem.Base, addrs[op.Mem.Addr])
			}
		}
		b.WriteString(";")
	}
	return b.String()
}

// TestCharacterizeInstrMeasuresIsolationOnce counts the measurements of a
// variant's isolation kernel (isoInstances independent instances) for a
// register, a memory, a divider and a skipped variant. CharacterizeInstr
// takes it once under the slow divider regime, where the µop count, the
// port-usage profile and Throughput all read it, and a divider's
// fast-regime throughput reading once more. Called one at a time, as a
// replay does, MeasuredUops, PortUsage and Throughput each take it
// themselves, and their results equal CharacterizeInstr's.
func TestCharacterizeInstrMeasuresIsolationOnce(t *testing.T) {
	arch := uarch.Get(uarch.Skylake)
	r := &kernelCounter{Machine: pipesim.New(arch)}
	c := New(measure.New(r))
	c.SetBlocking(charFor(t, uarch.Skylake).blocking)
	for _, tc := range []struct {
		name    string
		fast    int // fast-regime measurements of the isolation kernel
		skipped bool
	}{
		{"IMUL_R64_R64", 0, false},
		{"ADD_R64_M64", 0, false},
		{"DIV_R64", 1, false},
		{"CPUID", 0, true},
	} {
		in := variant(t, c, tc.name)
		iso, err := c.gen.independentInstances(in, isoInstances)
		if err != nil {
			t.Fatal(err)
		}
		r.want, r.slow, r.fast = kernelText(iso), 0, 0
		res, err := c.CharacterizeInstr(in)
		if err != nil {
			t.Fatal(err)
		}
		if (res.Skipped != "") != tc.skipped {
			t.Fatalf("%s: skipped %q", tc.name, res.Skipped)
		}
		if r.slow != 1 || r.fast != tc.fast {
			t.Errorf("%s: CharacterizeInstr measured the isolation kernel %d times, and %d more under fast divider values; want 1 and %d",
				tc.name, r.slow, r.fast, tc.fast)
		}

		r.slow, r.fast = 0, 0
		uops, issued, err := c.MeasuredUops(in)
		if err != nil {
			t.Fatal(err)
		}
		if uops != res.Uops || issued != res.UopsIssued {
			t.Errorf("%s: MeasuredUops %v and %v, CharacterizeInstr %v and %v", tc.name, uops, issued, res.Uops, res.UopsIssued)
		}
		if tc.skipped {
			continue
		}
		lat, err := c.Latency(in)
		if err != nil {
			t.Fatal(err)
		}
		pu, err := c.PortUsage(in, lat.MaxLatency())
		if err != nil {
			t.Fatal(err)
		}
		tp, err := c.Throughput(in, pu)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pu, res.Ports) || !reflect.DeepEqual(tp, res.Throughput) {
			t.Errorf("%s: PortUsage and Throughput read %v and %+v alone, CharacterizeInstr %v and %+v",
				tc.name, pu, tp, res.Ports, res.Throughput)
		}
		if r.slow != 3 || r.fast != tc.fast {
			t.Errorf("%s: the phases called one at a time measured the isolation kernel %d times, and %d more under fast divider values; want 3 and %d",
				tc.name, r.slow, r.fast, tc.fast)
		}
	}
}
