package atomicio

import (
	"strings"
	"testing"
)

func TestChecksum(t *testing.T) {
	const empty = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
	if got := Checksum(nil); got != empty {
		t.Fatalf("Checksum(nil) = %s, want %s", got, empty)
	}
	if Checksum([]byte("a")) == Checksum([]byte("b")) {
		t.Fatal("different contents share a checksum")
	}
}

func TestDecodeStrict(t *testing.T) {
	var v struct{ N int }
	if err := DecodeStrict([]byte(`{"N":3}`+"\n"), &v, "checkpoint"); err != nil || v.N != 3 {
		t.Fatalf("one value: N=%d err=%v", v.N, err)
	}
	err := DecodeStrict([]byte(`{"N":3}{"N":4}`), &v, "checkpoint")
	if err == nil || err.Error() != "trailing data after checkpoint" {
		t.Fatalf("two values: err=%v, want trailing data after checkpoint", err)
	}
	if err := DecodeStrict([]byte(`{"N":`), &v, "entry"); err == nil || strings.Contains(err.Error(), "trailing") {
		t.Fatalf("truncated value: err=%v, want a decode error", err)
	}
}
