package service

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"testing"

	"uopsinfo/internal/engine"
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
