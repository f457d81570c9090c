package experiments

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"hadooppreempt/internal/sweep"
)

// TestSimBackendGridIdentity pins the structure of the twelve sim grids.
// Cell-cache keys and the coordinator's join check both hash a grid's
// fingerprint, and the goldens depend on its axis order and pairing, so
// a moved, renamed or re-paired axis must fail here rather than only in
// a byte comparison against a 20-rep golden. The values were recorded
// at jobs=12, reps=20. The figure grids' fingerprints equal those of the
// grids the figure functions once declared inline, except worstcase's,
// whose extra axis keeps it apart from twojob; no two grids may share
// one, or they would share cache entries and coordinator identities.
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
		{"worstcase", "6acb812ea45ee8c66fa71707c176f0d344086c272bac655de2129372b6b947c7", 540},
		{"footprint", "8c6208df3e9e52dfea8ed4a36c9c290d94eace416cff7456320e1825cfce99d6", 300},
		{"natjam", "aba248b480a76dc31d31c6b026f08c6d7175bb750a13b449b50d4a53d7709f6a", 60},
		{"cycles", "315ab552faa9e118c0bc8c62bf7a7caa33888ce600aef3c7728cc19a2ae7587b", 7},
		{"victim", "d30590b59dc02e2d9f8b3bfec16ef734e4e17a06a52e61cbfeae2eefbc7d91e2", 4},
		{"advisor", "b28ccca17bc61d6cbb8b12aef689a91962a6067afd9a39374eb32a6a4b3cc240", 15},
	}
	var names []string
	seen := make(map[string]string)
	for _, c := range cases {
		names = append(names, c.name)
		b, err := SimBackend(c.name, 12, 20)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if b.Name() != SimBackendName {
			t.Errorf("%s: backend name %q, want %q", c.name, b.Name(), SimBackendName)
		}
		// The grid fingerprint covers everything a sim cell depends on,
		// so the backend adds no content fingerprint to the cache and
		// coordinator identities.
		if fp := sweep.BackendFingerprint(b); fp != "" {
			t.Errorf("%s: content fingerprint %q, want none", c.name, fp)
		}
		g, err := b.Grid()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fp := g.Fingerprint()
		if fp != c.fingerprint {
			t.Errorf("%s: grid fingerprint %s, want %s", c.name, fp, c.fingerprint)
		}
		if other, ok := seen[fp]; ok {
			t.Errorf("%s and %s share grid fingerprint %s", other, c.name, fp)
		}
		seen[fp] = c.name
		if n := g.Size(); n != c.size {
			t.Errorf("%s: grid has %d cells, want %d", c.name, n, c.size)
		}
	}

	// An unknown name's error lists exactly the twelve grids.
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

// TestFigureShardsMergeToTheSingleRun shows that figures are grids like
// any other: every figure grid split three ways, each part written to a
// shard file and read back, merges in shuffled order into the figure
// the single run renders, byte for byte.
func TestFigureShardsMergeToTheSingleRun(t *testing.T) {
	opts := sweep.Options{Parallel: 2, Seed: 5}
	for _, name := range FigureNames {
		f := Figures[name]
		if f.Grid == "" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			b, err := SimBackend(f.Grid, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			whole, err := sweep.RunBackend(b, opts, sweep.RepAxis)
			if err != nil {
				t.Fatal(err)
			}
			parts := make([]*sweep.Collapsed, 3)
			for i := range parts {
				o := opts
				if o.Shard, err = sweep.NewShard(i, len(parts)); err != nil {
					t.Fatal(err)
				}
				part, err := sweep.RunBackend(b, o, sweep.RepAxis)
				if err != nil {
					t.Fatal(err)
				}
				var file bytes.Buffer
				if err := part.WriteShard(&file); err != nil {
					t.Fatal(err)
				}
				if parts[i], err = sweep.ReadShard(&file); err != nil {
					t.Fatal(err)
				}
			}
			merged, err := sweep.Merge(parts[2], parts[0], parts[1])
			if err != nil {
				t.Fatal(err)
			}
			if got, want := renderJSON(t, f, merged), renderJSON(t, f, whole); got != want {
				t.Fatalf("merged shards render\n%s\nthe single run renders\n%s", got, want)
			}
		})
	}
}

func renderJSON(t *testing.T, f Figure, col *sweep.Collapsed) string {
	t.Helper()
	res, err := f.Render(col)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestWorstCaseIgnoresCachedTwoJobCells: worstcase runs twojob's cells
// with twojob's seeds, so only its extra axis keeps a cache directory
// that a twojob sweep filled from replaying twojob's results as
// Figure 3's.
func TestWorstCaseIgnoresCachedTwoJobCells(t *testing.T) {
	cache, err := sweep.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string, cache *sweep.Cache) string {
		b, err := SimBackend(name, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		col, err := sweep.RunBackend(b, sweep.Options{Parallel: 2, Seed: 1, Cache: cache}, sweep.RepAxis)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := col.WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	run("twojob", cache)
	if got, want := run("worstcase", cache), run("worstcase", nil); got != want {
		t.Fatalf("worstcase after twojob filled the cache:\n%s\nuncached:\n%s", got, want)
	}
}
