package experiments

import (
	"slices"
	"strings"
	"testing"
)

// TestSimBackendGridIdentity pins the structure of the six sim grids.
// Cell-cache keys and the coordinator's join check both hash a grid's
// fingerprint, and the goldens depend on its axis order and pairing, so
// a moved, renamed or re-paired axis must fail here rather than only in
// a byte comparison against a 20-rep golden. The values were recorded
// at jobs=12, reps=20.
func TestSimBackendGridIdentity(t *testing.T) {
	cases := []struct {
		name        string
		fingerprint string
		size        int
	}{
		{"twojob", "5c24ea98abc889ed39ac82f171b3fe4feff771b65ba118205683bba7d8c3e92f", 540},
		{"pressure", "9b4dfb2f920f04a87736db406e344bcb064017e6ab3fb519c3827c97875d5a9e", 540},
		{"cluster", "ebc629534124af83a2d66823987d747bf0c574847e4d8b0e5d322b2bc7464eb9", 540},
		{"evict", "3fc9df7b92910c1c37262690e33f3c8bd88834bbabab3b8ceee83c970c44b371", 1440},
		{"primitive", "1a67ae13f27aa7fdd9c6269e839081e9b2393a78f4498c9186d45e678e89efb4", 720},
		{"scenarios", "aa89b8e079f7b5b39a7a8fe16459130ee9eff3ed521abda7ad04c8a1b81adea4", 160},
	}
	var names []string
	for _, c := range cases {
		names = append(names, c.name)
		b, err := SimBackend(c.name, 12, 20)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if b.Name() != SimBackendName {
			t.Errorf("%s: backend name %q, want %q", c.name, b.Name(), SimBackendName)
		}
		g, err := b.Grid()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if fp := g.Fingerprint(); fp != c.fingerprint {
			t.Errorf("%s: grid fingerprint %s, want %s", c.name, fp, c.fingerprint)
		}
		if n := g.Size(); n != c.size {
			t.Errorf("%s: grid has %d cells, want %d", c.name, n, c.size)
		}
	}

	// An unknown name's error lists exactly the six grids.
	_, err := SimBackend("nope", 12, 20)
	if err == nil {
		t.Fatal("unknown scenario should fail")
	}
	_, list, ok := strings.Cut(err.Error(), "(want ")
	if !ok {
		t.Fatalf("error %q does not list the scenarios", err)
	}
	list = strings.TrimSuffix(list, ")")
	list = strings.Replace(list, " or ", ", ", 1)
	if got := strings.Split(list, ", "); !slices.Equal(got, names) {
		t.Fatalf("error lists %q, want %q", got, names)
	}
}
