package uarch

import (
	"strings"

	"uopsinfo/internal/isa"
)

// This file contains the rule-based assignment of µop decompositions to
// instruction variants. Named per-generation special cases (the paper's case
// studies) live in overrides.go and take precedence.

// wiring is the scaffolding shared by all assignment rules: load µops for
// memory source operands, the value references a compute step reads and
// writes, and the store information for memory destination operands.
type wiring struct {
	loads       []Uop
	srcs        []ValRef
	dsts        []ValRef
	storeMemIdx int    // operand index of a written memory operand, -1 if none
	storeSrc    ValRef // value stored by a pure store (no compute step)
	hasStoreSrc bool
	nextTemp    int
}

func (a *Arch) wire(in *isa.Instr) *wiring {
	w := &wiring{storeMemIdx: -1}
	for i, op := range in.Operands {
		switch op.Kind {
		case isa.OpReg:
			if op.Read {
				w.srcs = append(w.srcs, Op(i))
			}
			if op.Write {
				w.dsts = append(w.dsts, Op(i))
			}
		case isa.OpMem:
			if op.Read {
				t := Tmp(w.nextTemp)
				w.nextTemp++
				w.loads = append(w.loads, loadUop(a.prof.load, i, t))
				w.srcs = append(w.srcs, t)
			}
			if op.Write {
				w.storeMemIdx = i
			}
		case isa.OpFlags:
			if op.Read {
				w.srcs = append(w.srcs, Op(i))
			}
			if op.Write {
				w.dsts = append(w.dsts, Op(i))
			}
		case isa.OpImm:
			// Immediates are not dataflow resources.
		}
	}
	// Remember the natural store source for pure moves to memory: the first
	// read register operand.
	for i, op := range in.Operands {
		if op.Kind == isa.OpReg && op.Read {
			w.storeSrc = Op(i)
			w.hasStoreSrc = true
			break
		}
	}
	_ = in
	return w
}

// temp allocates a fresh temporary reference.
func (w *wiring) temp() ValRef {
	t := Tmp(w.nextTemp)
	w.nextTemp++
	return t
}

// assemble builds the final InstrPerf from the wiring, the compute µops and
// the store µops implied by a written memory operand. If the compute step is
// empty and a memory operand is written, the store data comes straight from
// the first read register operand (a pure store).
func (a *Arch) assemble(in *isa.Instr, w *wiring, compute []Uop, storeVal ValRef, hasStoreVal bool) *InstrPerf {
	p := &InstrPerf{}
	p.Uops = append(p.Uops, w.loads...)
	p.Uops = append(p.Uops, compute...)
	if w.storeMemIdx >= 0 {
		p.Uops = append(p.Uops, storeAddrUop(a.prof.storeAddr, w.storeMemIdx))
		var data Uop
		switch {
		case hasStoreVal:
			data = storeDataUop(a.prof.storeData, w.storeMemIdx, storeVal)
		case w.hasStoreSrc:
			data = storeDataUop(a.prof.storeData, w.storeMemIdx, w.storeSrc)
		default:
			data = storeDataUop(a.prof.storeData, w.storeMemIdx)
		}
		p.Uops = append(p.Uops, data)
	}
	p.ZeroIdiom = in.MayZeroIdiom
	p.ZeroIdiomElim = in.MayZeroIdiom && a.prof.zeroIdiomElim
	if in.MayMoveElim {
		isVec := in.Domain != isa.DomainInt
		if (isVec && a.prof.moveElimVec) || (!isVec && a.prof.moveElimGPR) {
			p.MoveElim = true
		}
	}
	return p
}

// simple builds the standard decomposition: loads, a single compute µop on
// the given ports with the given latency, and stores.
func (a *Arch) simple(in *isa.Instr, ports PortSet, lat int) *InstrPerf {
	w := a.wire(in)
	var compute []Uop
	storeVal := ValRef{}
	hasStoreVal := false
	dsts := w.dsts
	if w.storeMemIdx >= 0 && (len(w.srcs) > 0 || len(w.dsts) > 0) && hasComputeStep(in) {
		// Read-modify-write to memory: the compute µop produces the value to
		// store in a temporary.
		t := w.temp()
		dsts = append(append([]ValRef(nil), w.dsts...), t)
		storeVal = t
		hasStoreVal = true
	}
	if hasComputeStep(in) {
		compute = []Uop{uop(ports, lat, w.srcs, dsts)}
	} else if len(w.loads) > 0 && len(w.dsts) > 0 {
		// Pure move from memory: the load µop writes the destination
		// register directly instead of an internal temporary.
		w.loads[len(w.loads)-1].Writes = append([]ValRef(nil), w.dsts...)
	}
	return a.assemble(in, w, compute, storeVal, hasStoreVal)
}

// chainUops builds a decomposition whose compute step is a chain of µops:
// stage i executes on ports[i] with latency lats[i]; the first stage reads
// all sources, every stage feeds the next through a temporary, and the last
// stage writes all destinations. The per-operand-pair latency is the sum of
// the stage latencies.
func (a *Arch) chainUops(in *isa.Instr, ports []PortSet, lats []int) *InstrPerf {
	w := a.wire(in)
	n := len(ports)
	var compute []Uop
	var prev ValRef
	storeVal := ValRef{}
	hasStoreVal := false
	dsts := w.dsts
	if w.storeMemIdx >= 0 {
		t := w.temp()
		dsts = append(append([]ValRef(nil), w.dsts...), t)
		storeVal = t
		hasStoreVal = true
	}
	for i := 0; i < n; i++ {
		reads := []ValRef{}
		if i == 0 {
			reads = append(reads, w.srcs...)
		} else {
			reads = append(reads, prev)
		}
		var writes []ValRef
		if i == n-1 {
			writes = dsts
		} else {
			t := w.temp()
			writes = []ValRef{t}
			prev = t
		}
		compute = append(compute, uop(ports[i], lats[i], reads, writes))
	}
	return a.assemble(in, w, compute, storeVal, hasStoreVal)
}

// withExtra adds count additional µops on the given ports that have no
// dataflow effect (pure port pressure, as in microcoded instructions).
func withExtra(p *InstrPerf, ports PortSet, count int) *InstrPerf {
	for i := 0; i < count; i++ {
		p.Uops = append(p.Uops, uop(ports, 1, nil, nil))
	}
	return p
}

// hasComputeStep reports whether the variant needs an execution µop beyond
// pure loads and stores (false for plain MOV to/from memory and for pure
// stores, which decompose into just load or store µops).
func hasComputeStep(in *isa.Instr) bool {
	switch in.Mnemonic {
	case "MOV", "MOVAPS", "MOVUPS", "MOVAPD", "MOVUPD", "MOVDQA", "MOVDQU",
		"VMOVAPS", "VMOVUPS", "VMOVAPD", "VMOVUPD", "VMOVDQA", "VMOVDQU",
		"MOVNTPS", "MOVNTPD", "MOVNTDQ", "MOVNTDQA", "LDDQU", "MOVQ", "MOVD",
		"VMOVQ", "VMOVD", "MOVSS", "MOVSD", "PUSH", "POP":
		// Register-to-register forms of these still need an execution µop
		// (or are eliminated); memory forms are pure loads/stores. The
		// caller only relies on this for memory forms.
		return !in.HasMemOperand()
	}
	return true
}

// buildPerf is the rule-based fallback used for every variant that has no
// named override. It classifies the variant by mnemonic and operand shape and
// assigns ports and latencies from the generation profile.
func (a *Arch) buildPerf(in *isa.Instr) *InstrPerf {
	p := &a.prof
	m := in.Mnemonic
	base := strings.TrimPrefix(m, "V")
	isAVX := strings.HasPrefix(m, "V") && in.Extension.IsAVX()
	_ = isAVX

	// LOCK-prefixed read-modify-write instructions are microcoded.
	if in.HasLock {
		perf := a.simple(in, p.intALU, 1)
		return withExtra(perf, p.slowInt, 6)
	}
	// REP string instructions have a large, variable µop count.
	if in.HasRep {
		perf := a.simple(in, p.slowInt, 2)
		return withExtra(perf, p.slowInt, 8)
	}
	if in.IsNOP {
		return &InstrPerf{Uops: []Uop{{Ports: 0, Latency: 0}}}
	}
	if in.IsSerializing {
		perf := a.simple(in, p.slowInt, 4)
		return withExtra(perf, p.slowInt, 3)
	}
	if in.IsSystem {
		perf := a.simple(in, p.slowInt, 10)
		return withExtra(perf, p.slowInt, 10)
	}

	switch {
	// ---------------------------------------------------------------- moves
	case m == "MOV" || m == "MOVZX" || m == "MOVSX" || m == "MOVSXD":
		return a.simple(in, p.intALU, 1)
	case m == "MOVBE":
		if in.WritesMemory() {
			perf := a.simple(in, p.intShift, 1)
			return perf
		}
		return a.simple(in, p.intShift, 1)
	case m == "LEA":
		return a.simple(in, p.lea, 1)
	case m == "MOVAPS" || m == "MOVUPS" || m == "MOVAPD" || m == "MOVUPD" ||
		m == "MOVDQA" || m == "MOVDQU" || m == "VMOVAPS" || m == "VMOVUPS" ||
		m == "VMOVAPD" || m == "VMOVUPD" || m == "VMOVDQA" || m == "VMOVDQU" ||
		m == "MOVNTPS" || m == "MOVNTPD" || m == "MOVNTDQ" || m == "MOVNTDQA" || m == "LDDQU":
		return a.simple(in, p.vecLogic, 1)
	case m == "MOVSS" || m == "MOVSD" || m == "MOVHLPS" || m == "MOVLHPS" ||
		m == "MOVDDUP" || m == "MOVSHDUP" || m == "MOVSLDUP" ||
		m == "VMOVDDUP" || m == "VMOVSHDUP" || m == "VMOVSLDUP":
		return a.simple(in, p.shuffle, 1)
	case m == "MOVD" || m == "MOVQ" || m == "VMOVD" || m == "VMOVQ":
		// GPR<->vector transfers use port 0; pure vector/memory forms are
		// cheap moves.
		hasGPR := false
		for _, op := range in.ExplicitOperands() {
			if op.Kind == isa.OpReg && op.Class.IsGPR() {
				hasGPR = true
			}
		}
		if hasGPR {
			return a.simple(in, NewPortSet(0), 2)
		}
		return a.simple(in, p.vecLogic, 1)
	case m == "MOVQ2DQ" || m == "MOVDQ2Q":
		// Default model (overridden per generation for the case studies):
		// one shuffle µop plus one vector-logic µop.
		return a.chainUops(in, []PortSet{p.shuffle, p.vecLogic}, []int{1, 1})
	case m == "MOVMSKPS" || m == "MOVMSKPD" || m == "PMOVMSKB" || m == "VPMOVMSKB":
		return a.simple(in, NewPortSet(0), 2)
	case m == "MASKMOVDQU" || m == "VMASKMOVPS" || m == "VMASKMOVPD":
		perf := a.simple(in, p.vecLogic, 2)
		return withExtra(perf, p.storeAddr, 1)
	case m == "VZEROUPPER":
		return &InstrPerf{Uops: []Uop{uop(p.vecLogic, 1, nil, nil)}}
	case m == "VZEROALL":
		perf := &InstrPerf{Uops: []Uop{uop(p.vecLogic, 1, nil, nil)}}
		return withExtra(perf, p.vecLogic, 8)

	// ------------------------------------------------------ integer scalar
	case m == "ADD" || m == "SUB" || m == "AND" || m == "OR" || m == "XOR" ||
		m == "CMP" || m == "TEST" || m == "INC" || m == "DEC" || m == "NEG" || m == "NOT":
		return a.simple(in, p.intALU, 1)
	case m == "ADC" || m == "SBB":
		switch a.gen {
		case Nehalem, Westmere, SandyBridge, IvyBridge:
			// Two µops on the older generations.
			return a.chainUops(in, []PortSet{p.intALU, p.intShift}, []int{1, 1})
		case Haswell:
			// The Section 5.1 example: 1*p0156 + 1*p06, not 2*p0156.
			return a.chainUops(in, []PortSet{p.intALU, p.intShift}, []int{1, 1})
		default:
			return a.simple(in, p.intShift, 1)
		}
	case m == "ADCX" || m == "ADOX":
		return a.simple(in, p.intShift, 1)
	case m == "SHL" || m == "SHR" || m == "SAR" || m == "ROL" || m == "ROR":
		// The flags are both read and written; the register result is
		// available one cycle before the merged flags, giving different
		// latencies for different operand pairs (Section 7.3.5).
		w := a.wire(in)
		var regDst, flagDst []ValRef
		for _, d := range w.dsts {
			if d.Kind == ValOperand && in.Operands[d.Index].Kind == isa.OpFlags {
				flagDst = append(flagDst, d)
			} else {
				regDst = append(regDst, d)
			}
		}
		var regSrcs, flagSrcs []ValRef
		for _, s := range w.srcs {
			if s.Kind == ValOperand && in.Operands[s.Index].Kind == isa.OpFlags {
				flagSrcs = append(flagSrcs, s)
			} else {
				regSrcs = append(regSrcs, s)
			}
		}
		shiftUop := uop(p.intShift, 1, regSrcs, regDst)
		var compute []Uop
		if w.storeMemIdx >= 0 {
			t := w.temp()
			shiftUop.Writes = append(append([]ValRef(nil), regDst...), t)
			compute = []Uop{shiftUop}
			if len(flagDst) > 0 {
				compute = append(compute, uop(p.intShift, 2, append(regSrcs, flagSrcs...), flagDst))
			}
			return a.assemble(in, w, compute, t, true)
		}
		compute = []Uop{shiftUop}
		if len(flagDst) > 0 {
			compute = append(compute, uop(p.intShift, 2, append(regSrcs, flagSrcs...), flagDst))
		}
		return a.assemble(in, w, compute, ValRef{}, false)
	case m == "RCL" || m == "RCR":
		perf := a.chainUops(in, []PortSet{p.intShift, p.intALU, p.intShift}, []int{1, 1, 1})
		return perf
	case m == "SHLD" || m == "SHRD":
		// Default model: the second source is needed one cycle before the
		// read-modify-write destination (Section 7.3.2 explains the
		// Nehalem numbers: lat(R1,R1)=3, lat(R2,R1)=4).
		return a.buildShiftDouble(in)
	case m == "SARX" || m == "SHLX" || m == "SHRX" || m == "RORX":
		return a.simple(in, p.intShift, 1)
	case m == "IMUL" || m == "MUL":
		return a.buildMul(in)
	case m == "MULX":
		return a.simple(in, p.intMul, 4)
	case m == "DIV" || m == "IDIV":
		return a.buildDiv(in)
	case strings.HasPrefix(m, "CMOV"):
		reads2 := flagCount(in) >= 2
		switch {
		case a.gen <= IvyBridge:
			return a.chainUops(in, []PortSet{p.intALU, p.intALU}, []int{1, 1})
		case a.gen <= Broadwell:
			return a.chainUops(in, []PortSet{p.intShift, p.intShift}, []int{1, 1})
		default:
			if reads2 {
				// CMOVBE/CMOVNBE read both CF and ZF and keep two µops.
				return a.chainUops(in, []PortSet{p.intShift, p.intShift}, []int{1, 1})
			}
			return a.simple(in, p.intShift, 1)
		}
	case strings.HasPrefix(m, "SET"):
		return a.simple(in, p.intShift, 1)
	case strings.HasPrefix(m, "J") && in.ControlFlow:
		return a.simple(in, p.branch, 1)
	case m == "CALL":
		perf := a.simple(in, p.branch, 1)
		return withExtra(perf, p.storeAddr, 1)
	case m == "RET":
		perf := a.simple(in, p.branch, 1)
		return withExtra(perf, p.load, 1)
	case m == "BSF" || m == "BSR" || m == "POPCNT" || m == "LZCNT" || m == "TZCNT":
		return a.simple(in, p.intMul, 3)
	case m == "BT" || m == "BTS" || m == "BTR" || m == "BTC":
		return a.simple(in, p.intShift, 1)
	case m == "BSWAP":
		if in.Operands[0].Width == 64 {
			return a.chainUops(in, []PortSet{p.intShift, p.intALU}, []int{1, 1})
		}
		return a.simple(in, p.intALU, 1)
	case m == "XCHG":
		if in.HasMemOperand() {
			perf := a.simple(in, p.intALU, 2)
			return withExtra(perf, p.slowInt, 4)
		}
		return a.chainUops(in, []PortSet{p.intALU, p.intALU, p.intALU}, []int{1, 1, 1})
	case m == "XADD":
		return a.chainUops(in, []PortSet{p.intALU, p.intALU, p.intALU}, []int{1, 1, 1})
	case m == "CMPXCHG":
		perf := a.chainUops(in, []PortSet{p.intALU, p.intALU}, []int{1, 1})
		return withExtra(perf, p.intALU, 2)
	case m == "PUSH":
		return a.buildPush(in)
	case m == "POP":
		return a.buildPop(in)
	case m == "LAHF" || m == "SAHF":
		return a.simple(in, p.intShift, 1)
	case m == "CMC" || m == "CLC" || m == "STC":
		return a.simple(in, p.intALU, 1)
	case m == "CBW" || m == "CWDE" || m == "CDQE" || m == "CWD" || m == "CDQ" || m == "CQO":
		return a.simple(in, p.intALU, 1)
	case m == "ANDN" || m == "BEXTR" || m == "BZHI" || m == "BLSI" || m == "BLSMSK" || m == "BLSR":
		return a.simple(in, p.intALU, 1)
	case m == "PDEP" || m == "PEXT":
		return a.simple(in, p.intMul, 3)
	case m == "CRC32":
		return a.simple(in, p.intMul, 3)
	case m == "PAUSE":
		return &InstrPerf{Uops: []Uop{uop(p.intALU, 1, nil, nil), uop(p.intALU, 1, nil, nil)}}

	// ------------------------------------------------------------- vectors
	case m == "PSHUFB" || m == "VPSHUFB":
		// PSHUFB has an operand-dependent latency profile (Section 7.3.5):
		// the shuffle control is needed a cycle earlier than the data.
		return a.buildShiftDouble(in)
	case isShuffleMnemonic(base):
		return a.simple(in, p.shuffle, 1)
	case isVecLogicMnemonic(base):
		return a.simple(in, p.vecLogic, 1)
	case isVecALUMnemonic(base):
		return a.simple(in, p.vecALU, 1)
	case isVecMulMnemonic(base):
		lat := p.vecMulLat
		if base == "PMULLD" {
			// Double-pumped on most generations.
			if a.gen >= Haswell && a.gen <= Broadwell {
				return a.chainUops(in, []PortSet{p.vecMul, p.vecMul}, []int{5, 5})
			}
			lat = p.vecMulLat + 2
		}
		return a.simple(in, p.vecMul, lat)
	case isVecShiftMnemonic(base):
		return a.buildVecShift(in)
	case isHorizontalMnemonic(base):
		// Horizontal adds: two shuffles plus one arithmetic µop.
		arith := p.fpAdd
		if in.Domain == isa.DomainVecInt {
			arith = p.vecALU
		}
		return a.chainUops(in, []PortSet{p.shuffle, p.shuffle, arith}, []int{1, 1, a.prof.fpAddLat})
	case isFPAddMnemonic(base):
		return a.simple(in, p.fpAdd, p.fpAddLat)
	case isFPMulMnemonic(base):
		return a.simple(in, p.fpMul, p.fpMulLat)
	case isFMAMnemonic(m):
		return a.simple(in, p.fpMul, p.fmaLat)
	case isFPDivMnemonic(base):
		return a.buildFPDiv(in)
	case base == "RCPPS" || base == "RCPSS" || base == "RSQRTPS" || base == "RSQRTSS":
		return a.simple(in, p.fpDiv, 4)
	case isConvertMnemonic(base):
		return a.buildConvert(in)
	case isBlendMnemonic(base):
		return a.buildBlend(in)
	case base == "AESDEC" || base == "AESDECLAST" || base == "AESENC" || base == "AESENCLAST":
		return a.buildAES(in)
	case base == "AESIMC" || base == "AESKEYGENASSIST":
		perf := a.simple(in, p.aes, p.aesLat)
		return withExtra(perf, p.shuffle, 1)
	case base == "PCLMULQDQ":
		if a.gen <= IvyBridge {
			perf := a.simple(in, p.vecMul, 8)
			return withExtra(perf, p.shuffle, 2)
		}
		return a.simple(in, p.vecMul, 7)
	case base == "PCMPESTRI" || base == "PCMPESTRM" || base == "PCMPISTRI" || base == "PCMPISTRM":
		perf := a.simple(in, p.vecALU, 9)
		return withExtra(perf, p.slowInt, 3)
	case base == "PTEST" || base == "VTESTPS":
		return a.chainUops(in, []PortSet{p.vecLogic, p.intALU}, []int{1, 1})
	case base == "PHMINPOSUW":
		return a.simple(in, p.vecMul, 4)
	case base == "MPSADBW":
		// Another multi-latency instruction (Section 7.3.5).
		return a.chainUops(in, []PortSet{p.shuffle, p.vecALU}, []int{2, 2})
	case base == "DPPS" || base == "DPPD":
		return a.chainUops(in, []PortSet{p.fpMul, p.fpAdd, p.fpAdd}, []int{p.fpMulLat, 3, 3})
	case isExtractInsertMnemonic(base):
		return a.chainUops(in, []PortSet{p.shuffle, NewPortSet(0)}, []int{1, 1})
	case isGatherMnemonic(base):
		perf := a.simple(in, p.load, 5)
		return withExtra(perf, p.load, 3)
	case base == "VCVTPH2PS" || base == "VCVTPS2PH":
		return a.chainUops(in, []PortSet{p.fpMul, p.shuffle}, []int{3, 1})
	}

	// Fallback: a single ALU-class µop. The fallback is deliberately broad
	// so every generated variant has a defined ground truth.
	if in.Domain == isa.DomainInt {
		return a.simple(in, p.intALU, 1)
	}
	return a.simple(in, p.vecALU, 1)
}

// buildShiftDouble models SHLD/SHRD-style instructions: the non-destination
// source feeds an early µop, the read-modify-write destination feeds a later
// µop, so lat(src2,dst) exceeds lat(dst,dst) by one cycle.
func (a *Arch) buildShiftDouble(in *isa.Instr) *InstrPerf {
	p := &a.prof
	w := a.wire(in)
	// Split sources: operand 0 (the read-modify-write destination) and the
	// flags on one side, the other sources on the other.
	var lateSrcs, earlySrcs []ValRef
	for _, s := range w.srcs {
		if s.Kind == ValOperand && s.Index == 0 {
			lateSrcs = append(lateSrcs, s)
		} else {
			earlySrcs = append(earlySrcs, s)
		}
	}
	lat2 := 3
	if in.Mnemonic == "PSHUFB" || in.Mnemonic == "VPSHUFB" {
		lat2 = 1
	}
	if len(earlySrcs) == 0 {
		return a.simple(in, p.intShift, lat2)
	}
	t := w.temp()
	early := uop(p.intShift, 1, earlySrcs, []ValRef{t})
	if in.Domain != isa.DomainInt {
		early.Ports = p.shuffle
	}
	latePorts := p.intShift
	if in.Domain != isa.DomainInt {
		latePorts = p.shuffle
	}
	dsts := w.dsts
	storeVal := ValRef{}
	hasStoreVal := false
	if w.storeMemIdx >= 0 {
		tv := w.temp()
		dsts = append(append([]ValRef(nil), w.dsts...), tv)
		storeVal = tv
		hasStoreVal = true
	}
	late := uop(latePorts, lat2, append(lateSrcs, t), dsts)
	return a.assemble(in, w, []Uop{early, late}, storeVal, hasStoreVal)
}

// buildMul models the multiply variants.
func (a *Arch) buildMul(in *isa.Instr) *InstrPerf {
	p := &a.prof
	oneOperand := false
	for _, op := range in.Operands {
		if op.Implicit && op.FixedReg == isa.RDX && op.Write {
			oneOperand = true
		}
	}
	if oneOperand {
		// Widening multiply writing RDX:RAX.
		return a.chainUops(in, []PortSet{p.intMul, p.intALU}, []int{3, 1})
	}
	w := a.wire(in)
	// Register result after 3 cycles, flags one cycle later (a documented
	// multi-latency case, Section 7.3.5).
	var regDst, flagDst []ValRef
	for _, d := range w.dsts {
		if d.Kind == ValOperand && in.Operands[d.Index].Kind == isa.OpFlags {
			flagDst = append(flagDst, d)
		} else {
			regDst = append(regDst, d)
		}
	}
	u := uop(p.intMul, 3, w.srcs, append(regDst, flagDst...))
	u.WriteLat = make([]int, len(u.Writes))
	for i := range u.Writes {
		u.WriteLat[i] = 3
		if i >= len(regDst) {
			u.WriteLat[i] = 4
		}
	}
	return a.assemble(in, w, []Uop{u}, ValRef{}, false)
}

// buildDiv models the integer divisions (value-dependent latency, divider
// occupancy).
func (a *Arch) buildDiv(in *isa.Instr) *InstrPerf {
	p := &a.prof
	width := in.Operands[0].Width
	latHigh := 25
	latLow := 21
	occHigh := 18
	occLow := 10
	if width == 64 {
		latHigh, latLow = 42, 30
		occHigh, occLow = 30, 20
	}
	if a.gen >= Skylake {
		latHigh -= 4
		latLow -= 4
		occHigh -= 6
		occLow -= 6
	}
	w := a.wire(in)
	div := uop(p.intDiv, latHigh, w.srcs, w.dsts)
	div.Divider = true
	div.DivOccupancy = occHigh
	perf := a.assemble(in, w, []Uop{div}, ValRef{}, false)
	perf = withExtra(perf, p.slowInt, 2)
	perf.Divider = true
	perf.LatencyLowValues = latLow
	perf.DivOccupancyLowValues = occLow
	perf.DivOccupancyHighValues = occHigh
	return perf
}

// buildFPDiv models DIVPS/DIVPD/SQRT... (value-dependent, divider-bound).
func (a *Arch) buildFPDiv(in *isa.Instr) *InstrPerf {
	p := &a.prof
	latHigh, latLow := 14, 11
	occHigh, occLow := 8, 4
	if strings.Contains(in.Mnemonic, "SQRT") {
		latHigh, latLow = 18, 13
		occHigh, occLow = 12, 6
	}
	if a.gen >= Skylake {
		latHigh -= 3
		occHigh -= 3
	}
	w := a.wire(in)
	div := uop(p.fpDiv, latHigh, w.srcs, w.dsts)
	div.Divider = true
	div.DivOccupancy = occHigh
	perf := a.assemble(in, w, []Uop{div}, ValRef{}, false)
	perf.Divider = true
	perf.LatencyLowValues = latLow
	perf.DivOccupancyLowValues = occLow
	perf.DivOccupancyHighValues = occHigh
	return perf
}

// buildVecShift models the packed shifts: shift by immediate is a single
// µop; shift by an XMM count register needs an extra µop on most
// generations.
func (a *Arch) buildVecShift(in *isa.Instr) *InstrPerf {
	p := &a.prof
	byReg := false
	expl := in.ExplicitOperands()
	if len(expl) >= 2 && expl[len(expl)-1].Kind == isa.OpReg && expl[len(expl)-1].Class.IsVector() {
		byReg = true
	}
	if len(expl) >= 2 && expl[len(expl)-1].Kind == isa.OpMem {
		byReg = true
	}
	if byReg {
		return a.chainUops(in, []PortSet{p.shuffle, p.vecALU}, []int{1, 1})
	}
	return a.simple(in, p.vecALU, 1)
}

// buildConvert models the conversion instructions: generally a conversion
// µop plus a shuffle µop when the element layout changes.
func (a *Arch) buildConvert(in *isa.Instr) *InstrPerf {
	p := &a.prof
	crossDomain := false
	for _, op := range in.ExplicitOperands() {
		if op.Kind == isa.OpReg && op.Class.IsGPR() {
			crossDomain = true
		}
	}
	if crossDomain {
		return a.chainUops(in, []PortSet{p.fpAdd, NewPortSet(0)}, []int{p.fpAddLat, 2})
	}
	return a.chainUops(in, []PortSet{p.fpAdd, p.shuffle}, []int{p.fpAddLat, 1})
}

// buildBlend models the blend family. The variable blends (with an implicit
// XMM0 or an explicit selector) take two µops; PBLENDVB on Nehalem is the
// paper's 2*p05 example.
func (a *Arch) buildBlend(in *isa.Instr) *InstrPerf {
	p := &a.prof
	variable := false
	for _, op := range in.Operands {
		if op.Implicit && op.FixedReg.Class() == isa.ClassXMM {
			variable = true
		}
	}
	if len(in.ExplicitOperands()) >= 4 {
		variable = true // VBLENDVPS-style explicit selector
	}
	if !variable {
		return a.simple(in, p.shuffle, 1)
	}
	if a.gen <= Westmere {
		// Ground truth 2*p05 (measured as 1 µop on p0 plus 1 µop on p5 when
		// run in isolation).
		return a.chainUops(in, []PortSet{p.shuffle, p.shuffle}, []int{1, 1})
	}
	if a.gen >= Skylake {
		return a.chainUops(in, []PortSet{p.vecLogic, p.vecLogic}, []int{1, 1})
	}
	return a.chainUops(in, []PortSet{p.shuffle, p.vecLogic}, []int{1, 1})
}

// buildAES models the AES round instructions per generation (Section 7.3.1):
//   - Westmere: 3 µops, 6 cycles for every operand pair;
//   - Sandy Bridge / Ivy Bridge: 2 µops, lat(XMM1,XMM1)=8 but lat(XMM2,XMM1)=1
//     because the round key is only XORed in at the end;
//   - Haswell / Broadwell: 1 µop, 7 cycles;
//   - Skylake and later: 1 µop, 4 cycles.
func (a *Arch) buildAES(in *isa.Instr) *InstrPerf {
	p := &a.prof
	w := a.wire(in)
	// Identify the state operand (operand 0, read+write) and the key operand
	// (operand 1 or the loaded temporary).
	var stateRef, keyRef ValRef
	stateRef = Op(0)
	keyFound := false
	for _, s := range w.srcs {
		if !(s.Kind == ValOperand && s.Index == 0) {
			keyRef = s
			keyFound = true
		}
	}
	switch {
	case a.gen <= Westmere:
		perf := a.chainUops(in, []PortSet{p.aes, p.aes, p.aes}, []int{2, 2, 2})
		return perf
	case a.gen <= IvyBridge:
		t := w.temp()
		u1 := uop(NewPortSet(0), 7, []ValRef{stateRef}, []ValRef{t})
		reads := []ValRef{t}
		if keyFound {
			reads = append(reads, keyRef)
		}
		u2 := uop(NewPortSet(5), 1, reads, w.dsts)
		return a.assemble(in, w, []Uop{u1, u2}, ValRef{}, false)
	default:
		return a.simple(in, p.aes, p.aesLat)
	}
}

// buildPush and buildPop model the stack operations (the stack-pointer update
// is handled by the stack engine and does not need an execution port).
func (a *Arch) buildPush(in *isa.Instr) *InstrPerf {
	p := &a.prof
	var uops []Uop
	var src ValRef
	hasSrc := false
	for i, op := range in.Operands {
		if op.Kind == isa.OpReg && op.Read && !op.Implicit {
			src = Op(i)
			hasSrc = true
		}
		if op.Kind == isa.OpMem && op.Read {
			uops = append(uops, loadUop(p.load, i, Tmp(0)))
			src = Tmp(0)
			hasSrc = true
		}
	}
	uops = append(uops, Uop{Ports: p.storeAddr, Latency: 1, StoreAddr: true})
	data := Uop{Ports: p.storeData, Latency: 1, StoreData: true}
	if hasSrc {
		data.Reads = []ValRef{src}
	}
	uops = append(uops, data)
	return &InstrPerf{Uops: uops}
}

func (a *Arch) buildPop(in *isa.Instr) *InstrPerf {
	p := &a.prof
	var uops []Uop
	wroteReg := false
	for i, op := range in.Operands {
		if op.Kind == isa.OpReg && op.Write && !op.Implicit {
			uops = append(uops, Uop{Ports: p.load, Latency: 0, Load: true, Writes: []ValRef{Op(i)}})
			wroteReg = true
		}
	}
	if !wroteReg {
		uops = append(uops, Uop{Ports: p.load, Latency: 0, Load: true})
		uops = append(uops, Uop{Ports: p.storeAddr, Latency: 1, StoreAddr: true})
		uops = append(uops, Uop{Ports: p.storeData, Latency: 1, StoreData: true})
	}
	return &InstrPerf{Uops: uops}
}

// flagCount counts the status flags read by the variant.
func flagCount(in *isa.Instr) int {
	n := 0
	for _, op := range in.Operands {
		if op.Kind == isa.OpFlags {
			n += op.ReadFlags.Count()
		}
	}
	return n
}
