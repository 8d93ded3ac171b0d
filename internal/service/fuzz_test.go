package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"testing"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/engine"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/measure/remote"
	"uopsinfo/internal/uarch"
)

// FuzzRunOptionsFromRequest holds the parsers every characterization request
// passes through before it reaches the engine — uarch.ByName on the {gen}
// path segment, requestFormat and runOptionsFromRequest — to their contracts
// on arbitrary gen, only, quick and format strings: nothing panics, an
// accepted generation resolves back to itself by its canonical name, an
// accepted format is json or xml, and an accepted ?only is canonical (sorted,
// unique, canonical variant names) and re-parses to equal options under the
// same run digest.
func FuzzRunOptionsFromRequest(f *testing.F) {
	// The queries of the endpoint tests.
	f.Add("skylake", "ADD_R64_R64,PXOR_XMM_XMM", "", "")
	f.Add("skylake", "PXOR_XMM_XMM,ADD_R64_R64,ADD_R64_R64", "", "json")
	f.Add("sandy-bridge", "", "1", "xml")
	f.Add("Skylake", "ADD_R64_R64,IMUL_R64_R64,DIV_R64", "", "xml")
	f.Add("skylake", "", "", "bogus")
	f.Add("skylake", "ADD_R64_R64", "maybe", "yaml")
	f.Add("skylake", "NOPE", "", "")
	f.Add("z80", "", "", "")
	f.Add("nope", ",", "true", "")

	eng, err := engine.New(engine.Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	request := func(only, quick, format string) *http.Request {
		q := url.Values{"only": {only}, "quick": {quick}, "format": {format}}
		return httptest.NewRequest("GET", "/v1/arch/x?"+q.Encode(), nil)
	}
	f.Fuzz(func(t *testing.T, gen, only, quick, format string) {
		arch, err := uarch.ByName(gen)
		if err != nil {
			return
		}
		if again, err := uarch.ByName(arch.Name()); err != nil || again != arch {
			t.Fatalf("ByName(%q) = %v, %v; want the generation %q resolved to", arch.Name(), again, err, gen)
		}
		r := request(only, quick, format)
		switch got, err := requestFormat(r); {
		case err != nil:
		case got != formatJSON && got != formatXML,
			(format == formatJSON || format == formatXML) && got != format:
			t.Fatalf("format=%q resolved to %q", format, got)
		}
		opts, err := runOptionsFromRequest(arch, r)
		if err != nil {
			return
		}
		if !sort.StringsAreSorted(opts.Only) {
			t.Fatalf("only=%q parsed to unsorted %q", only, opts.Only)
		}
		set := arch.InstrSet()
		for i, name := range opts.Only {
			if i > 0 && opts.Only[i-1] == name {
				t.Fatalf("only=%q parsed to %q with %s twice", only, opts.Only, name)
			}
			if in := set.Lookup(name); in == nil || in.Name != name {
				t.Fatalf("only=%q parsed to the non-canonical name %q", only, name)
			}
		}
		again, err := runOptionsFromRequest(arch, request(strings.Join(opts.Only, ","), quick, format))
		if err != nil {
			t.Fatalf("re-parsing the canonical only=%q: %v", strings.Join(opts.Only, ","), err)
		}
		if !reflect.DeepEqual(again, opts) {
			t.Fatalf("re-parse changed the options: %+v -> %+v", opts, again)
		}
		d1, err1 := eng.RunDigest(arch.Gen(), opts)
		d2, err2 := eng.RunDigest(arch.Gen(), again)
		if err1 != nil || err2 != nil || d1 != d2 {
			t.Fatalf("re-parse changed the run digest: %v (%v) -> %v (%v)", d1, err1, d2, err2)
		}
	})
}

// FuzzMeasureRequest sends raw bodies to POST /v1/measure, the fleet
// worker's endpoint, through Service.ServeHTTP: nothing panics, the status is
// 200 or 400, and a 200 answers a body that is exactly one JSON request with
// one counter per copy count, or with the error that kept its kernel from
// being measured and no counters, under the worker's serving fingerprint and
// wire version.
func FuzzMeasureRequest(f *testing.F) {
	set := uarch.Get(uarch.Skylake).InstrSet()
	add := asmgen.MustInst(set.Lookup("ADD_R64_R64"), asmgen.RegOperand(isa.RAX), asmgen.RegOperand(isa.RBX))
	load := asmgen.MustInst(set.Lookup("MOV_R64_M64"), asmgen.RegOperand(isa.RCX), asmgen.MemOperand(isa.RSI, 0x2040))
	body := func(req remote.MeasureRequest) []byte {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	// A real measurement: one kernel at its two copy counts, as the fleet
	// client sends it.
	f.Add(remote.AppendRequest(nil, "skylake", 0, asmgen.Sequence{add, load}, []int{2, 12}))
	f.Add(remote.AppendRequest(nil, "Skylake", 1, asmgen.Sequence{add, load, add, add}, []int{1})) // an Order with repeats
	f.Add(body(remote.MeasureRequest{Gen: "skylake", Copies: []int{}, Instrs: []remote.Inst{}}))   // no copy counts
	f.Add(body(remote.MeasureRequest{Gen: "z80", Copies: []int{1}, Instrs: []remote.Inst{}}))      // an unknown generation
	f.Add([]byte(`{"gen":"skylake","copies":[1],"instrs":[{"name":"NOPE"},{]}`))
	f.Add([]byte("garbage"))
	f.Add([]byte(`{"gen":"skylake","copies":[1],"instrs":[{"name":"NOPE"}]}00`)) // trailing bytes

	eng, err := engine.New(engine.Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	svc, err := New(Config{Engine: eng})
	if err != nil {
		f.Fatal(err)
	}
	fingerprint := svc.servingFingerprint()
	f.Fuzz(func(t *testing.T, raw []byte) {
		panics := svc.Counters().Panics
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/measure", bytes.NewReader(raw)))
		if svc.Counters().Panics != panics {
			t.Fatalf("the handler panicked on %q", raw)
		}
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, raw, rec.Body)
		}
		var req remote.MeasureRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			t.Fatalf("200 for a body that is not one JSON request (%v): %q", err, raw)
		}
		var resp remote.MeasureResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body does not decode (%v): %s", err, rec.Body)
		}
		if resp.Error == "" && len(resp.Counters) != len(req.Copies) || resp.Error != "" && resp.Counters != nil {
			t.Fatalf("%d copy counts answered with %d counters and error %q", len(req.Copies), len(resp.Counters), resp.Error)
		}
		if resp.Fingerprint != fingerprint || resp.WireVersion != remote.WireVersion {
			t.Fatalf("answered as %q wire %d, want %q wire %d", resp.Fingerprint, resp.WireVersion, fingerprint, remote.WireVersion)
		}
	})
}
