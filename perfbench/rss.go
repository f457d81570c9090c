package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
)

// Each pass measures its own peak resident set size: before the pass
// the kernel's high-water mark (VmHWM) is reset to the current resident
// size, and after it the mark is read back. The run reports the median
// pass, which one outlying GC cycle cannot move.

// resetPeakRSS resets the process's VmHWM by writing 5 to
// /proc/self/clear_refs (Linux 4.0 and later).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// peakRSS returns the process's VmHWM in bytes, from /proc/self/status.
func peakRSS() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := bytes.CutPrefix(sc.Bytes(), []byte("VmHWM:"))
		if !ok {
			continue
		}
		kb, err := strconv.ParseInt(string(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte(" kB"))), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/self/status: VmHWM: %w", err)
		}
		return kb << 10, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM")
}
