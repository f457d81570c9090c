// Package atomicio writes and verifies the durable state the harness
// persists — coordinator checkpoints and cell-result cache entries.
// Both writers guarantee a reader never observes a torn file: the data
// lands in a temp file in the target directory first and is renamed
// over the destination, so the destination either holds the previous
// complete contents or the new complete contents. On the way back in,
// Checksum and DecodeStrict let a reader reject a file whose content
// does not match its recorded checksum or that holds more than one
// value.
package atomicio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Checksum is the content checksum stored beside persisted state: the
// hex SHA-256 of raw.
func Checksum(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// DecodeStrict unmarshals exactly one JSON value from raw into v and
// rejects trailing data, so a torn concatenation of two files cannot
// half-parse into a plausible value. what names the value in the
// trailing-data error ("trailing data after " + what).
func DecodeStrict(raw []byte, v any, what string) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(v); err != nil {
		return err
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err == nil {
		return fmt.Errorf("trailing data after %s", what)
	}
	return nil
}

// WriteFileDurable atomically replaces path with data: write a temp
// file, fsync it, rename it over path, then fsync the parent directory
// so the rename itself is durable. Without the syncs a crash right
// after the caller acted on the write (e.g. a coordinator acking an
// upload) could lose the file that justified the action — the rename
// would exist only in the page cache. The temp name is fixed
// (path+".tmp"), so concurrent writers of the same path need external
// serialization; the coordinator holds its mutex across checkpoints.
func WriteFileDurable(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("write %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("rename: %w", err)
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		// Directory fsync can fail on exotic filesystems; the rename is
		// already visible, so degrade to pre-sync durability silently.
		dir.Sync()
		dir.Close()
	}
	return nil
}

// WriteFileAtomic atomically replaces path with data through a uniquely
// named temp file, so any number of concurrent writers — goroutines or
// separate processes racing on the same cache entry — each land a
// complete file and the last rename wins. Unlike WriteFileDurable it
// does not fsync: a crash may lose the write entirely or leave bytes
// the filesystem never flushed, which is acceptable for callers (the
// cell-result cache) that checksum entries on read and treat any
// anomaly as a miss.
func WriteFileAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("write %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("rename: %w", err)
	}
	return nil
}
