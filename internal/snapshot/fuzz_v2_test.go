package snapshot

import (
	"bytes"
	"testing"
)

// FuzzReadV2 feeds arbitrary bytes to the v2 container parser: it must
// reject anything malformed with an error and never panic; any accepted
// input must survive reading and decoding every section the seeds name
// without panicking.
func FuzzReadV2(f *testing.F) {
	b := NewBuilder("fuzz-v2")
	if err := b.AddSection("meta", []byte(`{"k":3}`)); err != nil {
		f.Fatal(err)
	}
	if err := b.AddFloat64("phi", []float64{0.5, 1.5, -2}); err != nil {
		f.Fatal(err)
	}
	if err := b.AddInt64("ids", []int64{1, 5, 9}); err != nil {
		f.Fatal(err)
	}
	// A section no loader reads: a reader must pass over it.
	if err := b.AddSection("unknown", []byte("later")); err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := b.Write(&valid); err != nil {
		f.Fatal(err)
	}
	v := valid.Bytes()
	f.Add(v)
	f.Add(v[:len(v)/2])     // truncated mid-sections
	f.Add(v[:13])           // truncated mid-header
	f.Add([]byte{})         // empty
	f.Add([]byte("IBSNAP")) // magic only
	tableFlip := append([]byte(nil), v...)
	tableFlip[24] ^= 0x08
	f.Add(tableFlip) // bit-flipped section table
	payloadFlip := append([]byte(nil), v...)
	payloadFlip[len(payloadFlip)-3] ^= 0x10
	f.Add(payloadFlip) // bit-flipped payload (header still parses)
	countFlip := append([]byte(nil), v...)
	countFlip[20] ^= 0xff
	f.Add(countFlip) // mangled section count

	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := OpenV2(data)
		if err != nil {
			return
		}
		defer file.Close()
		// Whatever parsed must be traversable without panics: every section
		// the seeds name either verifies, reports a checksum error or is
		// missing, and the typed decoders must handle odd lengths gracefully.
		for _, name := range []string{"meta", "phi", "ids", "unknown"} {
			_, _ = file.Section(name)
			_, _ = file.Float64Section(name)
			_, _ = file.Int64Section(name)
		}
		// Version sniffing must agree this is v2.
		if ver, err := SniffVersion(data); err != nil || ver != Version2 {
			t.Fatalf("accepted container sniffs as version %d (%v)", ver, err)
		}
	})
}
