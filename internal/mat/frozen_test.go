package mat

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
)

func mustPanicFrozen(t *testing.T, op string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s on frozen matrix did not panic", op)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "frozen") {
			t.Fatalf("%s panic = %v, want a frozen-matrix message", op, r)
		}
	}()
	fn()
}

func TestFrozenMatrixRejectsMutation(t *testing.T) {
	m := FrozenFromSlice(2, 2, []float64{1, 2, 3, 4})
	if !m.Frozen() {
		t.Fatal("FrozenFromSlice not frozen")
	}
	other := New(2, 2)
	mustPanicFrozen(t, "Set", func() { m.Set(0, 0, 9) })
	mustPanicFrozen(t, "Zero", func() { m.Zero() })
	mustPanicFrozen(t, "Scale", func() { m.Scale(2) })
	mustPanicFrozen(t, "AxpyInPlace", func() { m.AxpyInPlace(1, other) })
	mustPanicFrozen(t, "CopyFrom", func() { m.CopyFrom(other) })
	mustPanicFrozen(t, "Symmetrize", func() { m.Symmetrize() })
	// Reads stay available.
	if m.At(1, 0) != 3 || m.Row(1)[1] != 4 || m.Trace() != 5 {
		t.Fatal("reads on frozen matrix broken")
	}
}

func TestMutableCopiesOnlyWhenFrozen(t *testing.T) {
	w := FromSlice(1, 2, []float64{1, 2})
	if w.Mutable() != w {
		t.Fatal("Mutable copied a writable matrix")
	}
	f := FrozenFromSlice(1, 2, []float64{1, 2})
	c := f.Mutable()
	if c == f || c.Frozen() {
		t.Fatal("Mutable on frozen matrix must return a writable copy")
	}
	c.Set(0, 0, 9)
	if f.At(0, 0) != 1 {
		t.Fatal("copy aliases the frozen matrix")
	}
	// Clone of a frozen matrix is also writable.
	cl := f.Clone()
	if cl.Frozen() {
		t.Fatal("Clone inherited frozen")
	}
	cl.Set(0, 1, 7)
}

// TestFrozenInvisibleToGob pins the serialization contract: frozen is an
// in-memory property only, so a gob round trip of a Matrix value ignores it
// and determinism tests comparing gob bytes cannot be affected by it.
func TestFrozenInvisibleToGob(t *testing.T) {
	frozen := FrozenFromSlice(1, 2, []float64{1, 2})
	thawed := FromSlice(1, 2, []float64{1, 2})
	enc := func(m *Matrix) []byte {
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(m); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if !bytes.Equal(enc(frozen), enc(thawed)) {
		t.Fatal("frozen flag leaked into gob bytes")
	}
	var back Matrix
	if err := gob.NewDecoder(bytes.NewReader(enc(frozen))).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if back.Frozen() {
		t.Fatal("decoded matrix claims frozen")
	}
	back.Set(0, 0, 5)
}
