package store

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadVariant feeds arbitrary bytes to LoadVariant as the variant file
// of a fixed digest and name: a crash, a full disk or another process can
// leave that file in any state. LoadVariant must never panic. A hit names
// the requested variant. A miss either quarantined the file (Corrupt up by
// one, the slot empty) or left a newer-version envelope where it was.
func FuzzLoadVariant(f *testing.F) {
	const name = "ADD_R64_R64"
	dig := testKey("variant skipLatency=false").Digest()
	file := dig.VariantFilename(name)

	seed, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := seed.SaveVariant(dig, name, testRecord(name)); err != nil {
		f.Fatal(err)
	}
	saved, err := os.ReadFile(filepath.Join(seed.Dir(), file))
	if err != nil {
		f.Fatal(err)
	}
	envelopeOf := func(version int, kind string, payload any) []byte {
		raw, err := json.Marshal(payload)
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(envelope{Version: version, Kind: kind, Payload: raw})
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(saved)
	for _, n := range []int{1, len(saved) / 2, len(saved) - 1} {
		f.Add(saved[:n])
	}
	f.Add(envelopeOf(Version, KindBlocking, testRecord(name)))
	f.Add(envelopeOf(Version, KindVariant, testRecord("IMUL_R64_R64")))
	f.Add(envelopeOf(Version+1, KindVariant, testRecord(name)))
	f.Add(envelopeOf(Version, KindVariant, nil))
	f.Add([]byte{})
	f.Add([]byte("\x00\xffnot a record{"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(s.Dir(), file)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, ok := s.LoadVariant(dig, name)
		corrupt := s.Stats().Corrupt
		_, statErr := os.Stat(path)
		switch {
		case ok:
			if rec.Name != name || corrupt != 0 {
				t.Fatalf("hit names %q with %d corrupt, want %q with 0", rec.Name, corrupt, name)
			}
		case newerVersion(data):
			if corrupt != 0 || statErr != nil {
				t.Fatalf("newer-version envelope was not left in place: %d corrupt, stat %v", corrupt, statErr)
			}
		case corrupt != 1 || !errors.Is(statErr, fs.ErrNotExist):
			t.Fatalf("miss was not quarantined: %d corrupt, stat %v", corrupt, statErr)
		}
	})
}
