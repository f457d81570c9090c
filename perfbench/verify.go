package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// digestsFile holds the SHA-256 of every seed-1 output no golden file
// covers. `perfbench --update-digests` rewrites it.
const digestsFile = "perfbench/digests.json"

// expect is what one named output must equal: the full bytes (a golden
// file or a serial reference run) or, where only a digest is committed,
// their SHA-256.
type expect struct {
	data   []byte
	sha256 string
	source string
}

func (e expect) matches(got []byte) bool {
	if e.data != nil {
		return bytes.Equal(e.data, got)
	}
	return e.sha256 != "" && digest(got) == e.sha256
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checker verifies outputs and keeps the failure account: every output
// checked is one attempt, every mismatch (or output with no
// expectation) one failure.
type checker struct {
	names      []string // outputs a pass must produce, in order
	want       map[string]expect
	attempted  int
	failed     int
	mismatches []string
}

func (c *checker) expect(name string, e expect) {
	c.names = append(c.names, name)
	c.want[name] = e
}

// checkPass checks every output a pass must produce; a missing one
// (its sweep failed) is a failure.
func (c *checker) checkPass(r passResult) {
	for _, name := range c.names {
		var got []byte
		for _, o := range r.outputs {
			if o.name == name {
				got = o.csv
			}
		}
		c.check(name, got)
	}
}

func (c *checker) check(name string, got []byte) {
	c.attempted++
	e, ok := c.want[name]
	if ok && e.matches(got) {
		return
	}
	c.failed++
	if len(c.mismatches) < 8 {
		src := "no expectation"
		if ok {
			src = e.source
		}
		c.mismatches = append(c.mismatches, fmt.Sprintf("%s differs from %s", name, src))
	}
}

// loadDigests reads the committed digests; a missing file is an error,
// since a seed-1 run would otherwise verify nothing.
func loadDigests() (map[string]string, error) {
	raw, err := os.ReadFile(digestsFile)
	if err != nil {
		return nil, err
	}
	var m map[string]string
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", digestsFile, err)
	}
	return m, nil
}

// writeDigests rewrites the digests file, one sorted entry per line.
func writeDigests(m map[string]string) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsFile, append(raw, '\n'), 0o644)
}
