package pinball

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"looppoint/internal/artifact"
	"looppoint/internal/omp"
	"looppoint/internal/testprog"
)

// FuzzReadFrom hardens the pinball decoder against corrupted or
// adversarial files: it must return an error or a verified pinball, never
// panic or allocate unboundedly.
func FuzzReadFrom(f *testing.F) {
	p := testprog.Phased(2, 2, 30, omp.Passive)
	pb, err := Record(p, 5, 0)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pb.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("LOOPPINB"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadFrom(bytes.NewReader(data))
		if err == nil && got == nil {
			t.Fatal("nil pinball without error")
		}
		if err == nil {
			// A successfully decoded pinball must re-verify.
			if verr := got.Verify(); verr != nil {
				t.Fatalf("decoded pinball fails verification: %v", verr)
			}
		}
	})
}

// reseal returns a copy of data with the trailing integrity hash
// recomputed over the mutated payload, so fuzzed inputs get past the
// checksum to the structural parser and the verification behind it
// instead of all dying at the hash comparison. (The fuzz engine owns
// data; it must not be modified in place.)
func reseal(data []byte) []byte {
	data = append([]byte(nil), data...)
	if len(data) < len(magic)+8 {
		return data
	}
	end := len(data) - 8
	binary.LittleEndian.PutUint64(data[end:], artifact.Update(artifact.FNVOffset, data[len(magic):end]))
	return data
}

// FuzzDecode hardens the production slab decoder (Load, LoadMapped) with
// resealed inputs: it must return an error or a verified pinball, never
// panic or allocate unboundedly; anything it accepts must survive an
// encode/decode round trip; and the streaming reference reader must
// agree on which inputs are valid. Seed corpus: testdata/fuzz/FuzzDecode.
func FuzzDecode(f *testing.F) {
	p := testprog.Phased(2, 2, 30, omp.Passive)
	pb, err := Record(p, 5, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pb.AppendBinary(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		data = reseal(data)
		got, err := Decode(data)
		_, refErr := ReadFrom(bytes.NewReader(data))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Decode and the streaming reader disagree: %v vs %v", err, refErr)
		}
		if err != nil {
			return
		}
		if verr := got.Verify(); verr != nil {
			t.Fatalf("decoded pinball fails verification: %v", verr)
		}
		again, err := Decode(got.AppendBinary(nil))
		if err != nil {
			t.Fatalf("re-encoded pinball does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatal("encode/decode round trip changed the pinball")
		}
	})
}
