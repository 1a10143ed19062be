package snapshot

import (
	"bytes"
	"testing"
)

// FuzzRead feeds arbitrary bytes to the container reader: it must reject
// anything malformed with an error and never panic, and any accepted input
// must decode to a payload that round-trips through Write and Read.
func FuzzRead(f *testing.F) {
	var valid bytes.Buffer
	if err := Write(&valid, "fuzz-model", []byte("seed payload bytes")); err != nil {
		f.Fatal(err)
	}
	b := valid.Bytes()
	f.Add(b)
	f.Add(b[:len(b)/2])     // truncated mid-payload
	f.Add(b[:9])            // truncated mid-header
	f.Add([]byte{})         // empty
	f.Add([]byte("IBSNAP")) // magic only
	flipped := append([]byte(nil), b...)
	flipped[len(flipped)-3] ^= 0x10
	f.Add(flipped) // bit-flipped payload
	hdrFlip := append([]byte(nil), b...)
	hdrFlip[8] ^= 0xff
	f.Add(hdrFlip) // mangled kind length

	f.Fuzz(func(t *testing.T, data []byte) {
		var got []byte
		err := Read(bytes.NewReader(data), "fuzz-model", &got)
		if err == nil {
			// Accepted input must re-serialize to a container whose
			// payload round-trips.
			var rt bytes.Buffer
			if werr := Write(&rt, "fuzz-model", got); werr != nil {
				t.Fatalf("round-trip write failed: %v", werr)
			}
			var again []byte
			if rerr := Read(&rt, "fuzz-model", &again); rerr != nil || !bytes.Equal(again, got) {
				t.Fatalf("round trip = %q, %v; want %q", again, rerr, got)
			}
		}
		// ReadKind must likewise never panic.
		ReadKind(bytes.NewReader(data))
	})
}
