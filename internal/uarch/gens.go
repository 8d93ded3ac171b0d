package uarch

import "uopsinfo/internal/isa"

// profileFor returns the port layout and pipeline parameters of a generation.
// The port groups follow the publicly documented execution-port layouts of
// the Intel Core generations: six ports on Nehalem through Ivy Bridge, eight
// ports on Haswell and later (Figure 1 of the paper shows the six-port
// variant). ok == false reports an unmodelled generation; callers fed
// request-derived input (the HTTP service, anything resolving a Generation
// from a name) must see an error path here, never a panic.
func profileFor(g Generation) (profile, bool) {
	switch g {
	case Nehalem, Westmere:
		return profile{
			machine: Machine{NumPorts: 6, IssueWidth: 4, LoadLatency: 4, SSEAVXPenalty: 0},

			intALU:    NewPortSet(0, 1, 5),
			intShift:  NewPortSet(0, 5),
			intMul:    NewPortSet(1),
			intDiv:    NewPortSet(0),
			lea:       NewPortSet(0, 1),
			branch:    NewPortSet(5),
			load:      NewPortSet(2),
			storeAddr: NewPortSet(3),
			storeData: NewPortSet(4),
			fpAdd:     NewPortSet(1),
			fpMul:     NewPortSet(0),
			fpDiv:     NewPortSet(0),
			vecALU:    NewPortSet(0, 1, 5),
			vecMul:    NewPortSet(0),
			vecLogic:  NewPortSet(0, 1, 5),
			shuffle:   NewPortSet(0, 5),
			aes:       NewPortSet(0, 1, 5),
			slowInt:   NewPortSet(0, 1, 5),

			moveElimGPR:   false,
			moveElimVec:   false,
			zeroIdiomElim: false,

			fpAddLat:  3,
			fpMulLat:  4,
			fmaLat:    0,
			aesLat:    6,
			vecMulLat: 3,
		}, true
	case SandyBridge, IvyBridge:
		p := profile{
			machine: Machine{NumPorts: 6, IssueWidth: 4, LoadLatency: 4, SSEAVXPenalty: 70},

			intALU:    NewPortSet(0, 1, 5),
			intShift:  NewPortSet(0, 5),
			intMul:    NewPortSet(1),
			intDiv:    NewPortSet(0),
			lea:       NewPortSet(0, 1),
			branch:    NewPortSet(5),
			load:      NewPortSet(2, 3),
			storeAddr: NewPortSet(2, 3),
			storeData: NewPortSet(4),
			fpAdd:     NewPortSet(1),
			fpMul:     NewPortSet(0),
			fpDiv:     NewPortSet(0),
			vecALU:    NewPortSet(1, 5),
			vecMul:    NewPortSet(0),
			vecLogic:  NewPortSet(0, 1, 5),
			shuffle:   NewPortSet(5),
			aes:       NewPortSet(0),
			slowInt:   NewPortSet(0, 1, 5),

			moveElimGPR:   false,
			moveElimVec:   false,
			zeroIdiomElim: true,

			fpAddLat:  3,
			fpMulLat:  5,
			fmaLat:    0,
			aesLat:    8,
			vecMulLat: 3,
		}
		if g == IvyBridge {
			p.moveElimGPR = true
			p.moveElimVec = true
		}
		return p, true
	case Haswell, Broadwell:
		return profile{
			machine: Machine{NumPorts: 8, IssueWidth: 4, LoadLatency: 4, SSEAVXPenalty: 70},

			intALU:    NewPortSet(0, 1, 5, 6),
			intShift:  NewPortSet(0, 6),
			intMul:    NewPortSet(1),
			intDiv:    NewPortSet(0),
			lea:       NewPortSet(1, 5),
			branch:    NewPortSet(6),
			load:      NewPortSet(2, 3),
			storeAddr: NewPortSet(2, 3, 7),
			storeData: NewPortSet(4),
			fpAdd:     NewPortSet(1),
			fpMul:     NewPortSet(0, 1),
			fpDiv:     NewPortSet(0),
			vecALU:    NewPortSet(1, 5),
			vecMul:    NewPortSet(0),
			vecLogic:  NewPortSet(0, 1, 5),
			shuffle:   NewPortSet(5),
			aes:       NewPortSet(5),
			slowInt:   NewPortSet(0, 1, 5, 6),

			moveElimGPR:   true,
			moveElimVec:   true,
			zeroIdiomElim: true,

			fpAddLat:  3,
			fpMulLat:  5,
			fmaLat:    5,
			aesLat:    7,
			vecMulLat: 5,
		}, true
	case Skylake, KabyLake, CoffeeLake:
		return profile{
			machine: Machine{NumPorts: 8, IssueWidth: 4, LoadLatency: 4, SSEAVXPenalty: 0},

			intALU:    NewPortSet(0, 1, 5, 6),
			intShift:  NewPortSet(0, 6),
			intMul:    NewPortSet(1),
			intDiv:    NewPortSet(0),
			lea:       NewPortSet(1, 5),
			branch:    NewPortSet(6),
			load:      NewPortSet(2, 3),
			storeAddr: NewPortSet(2, 3, 7),
			storeData: NewPortSet(4),
			fpAdd:     NewPortSet(0, 1),
			fpMul:     NewPortSet(0, 1),
			fpDiv:     NewPortSet(0),
			vecALU:    NewPortSet(0, 1, 5),
			vecMul:    NewPortSet(0, 1),
			vecLogic:  NewPortSet(0, 1, 5),
			shuffle:   NewPortSet(5),
			aes:       NewPortSet(0),
			slowInt:   NewPortSet(0, 1, 5, 6),

			moveElimGPR:   true,
			moveElimVec:   true,
			zeroIdiomElim: true,

			fpAddLat:  4,
			fpMulLat:  4,
			fmaLat:    4,
			aesLat:    4,
			vecMulLat: 5,
		}, true
	}
	return profile{}, false
}

// extensionsFor returns the ISA extensions implemented by a generation. The
// growing extension list is what makes the per-generation instruction-variant
// counts in Table 1 increase from Nehalem to Coffee Lake.
func extensionsFor(g Generation) map[isa.Extension]bool {
	exts := map[isa.Extension]bool{
		isa.ExtBase:   true,
		isa.ExtMMX:    true,
		isa.ExtSSE:    true,
		isa.ExtSSE2:   true,
		isa.ExtSSE3:   true,
		isa.ExtSSSE3:  true,
		isa.ExtSSE41:  true,
		isa.ExtSSE42:  true,
		isa.ExtSystem: true,
	}
	add := func(names ...isa.Extension) {
		for _, n := range names {
			exts[n] = true
		}
	}
	if g >= Westmere {
		add(isa.ExtAES, isa.ExtCLMUL)
	}
	if g >= SandyBridge {
		add(isa.ExtAVX)
	}
	if g >= IvyBridge {
		add(isa.ExtF16C, isa.Extension("RDRAND"))
	}
	if g >= Haswell {
		add(isa.ExtAVX2, isa.ExtBMI, isa.ExtFMA, isa.Extension("MOVBE"))
	}
	if g >= Broadwell {
		add(isa.Extension("ADX"), isa.Extension("RDSEED"))
	}
	if g >= Skylake {
		add(isa.Extension("CLFLUSHOPT"))
	}
	return exts
}
