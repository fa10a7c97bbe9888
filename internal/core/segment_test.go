package core

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func sampleAtoms() []Atom {
	return []Atom{
		{ID: 0, Name: "tileA", Attrs: Attributes{
			Type: TypeFloat64, Pattern: PatternRegular, StrideBytes: 8,
			RW: ReadOnly, Intensity: 200, Reuse: 255,
		}},
		{ID: 1, Name: "edges", Attrs: Attributes{
			Type: TypeInt32, Props: PropIndex | PropSparse,
			Pattern: PatternIrregular, RW: ReadWrite, Intensity: 30,
		}},
		{ID: 2, Name: "", Attrs: Attributes{}},
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	atoms := sampleAtoms()
	seg := EncodeSegment(atoms)
	got, err := DecodeSegment(seg)
	if err != nil {
		t.Fatalf("DecodeSegment: %v", err)
	}
	if !reflect.DeepEqual(atoms, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, atoms)
	}
}

func TestSegmentEmpty(t *testing.T) {
	seg := EncodeSegment(nil)
	got, err := DecodeSegment(seg)
	if err != nil {
		t.Fatalf("DecodeSegment: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d atoms from empty segment", len(got))
	}
}

func TestSegmentBadMagic(t *testing.T) {
	if _, err := DecodeSegment([]byte("not an atom segment at all")); !errors.Is(err, ErrNotAtomSegment) {
		t.Fatalf("err = %v, want ErrNotAtomSegment", err)
	}
	if _, err := DecodeSegment(nil); !errors.Is(err, ErrNotAtomSegment) {
		t.Fatalf("err = %v, want ErrNotAtomSegment", err)
	}
}

func TestSegmentUnknownVersion(t *testing.T) {
	seg := EncodeSegment(sampleAtoms())
	binary.LittleEndian.PutUint16(seg[8:10], 99)
	if _, err := DecodeSegment(seg); !errors.Is(err, ErrUnknownSegmentVersion) {
		t.Fatalf("err = %v, want ErrUnknownSegmentVersion", err)
	}
	// §3.5.2: older architectures simply ignore unknown formats.
	atoms, err := DecodeSegmentLenient(seg)
	if err != nil || atoms != nil {
		t.Fatalf("lenient decode = %v atoms, err %v; want nil, nil", atoms, err)
	}
}

func TestSegmentTruncated(t *testing.T) {
	seg := EncodeSegment(sampleAtoms())
	for _, cut := range []int{13, len(seg) / 2, len(seg) - 1} {
		if _, err := DecodeSegment(seg[:cut]); err == nil {
			t.Errorf("decode of %d-byte prefix succeeded", cut)
		}
	}
}

func TestSegmentRecordSizeMatchesPaper(t *testing.T) {
	// §4.4 budgets 19 bytes of attributes per atom.
	one := EncodeSegment([]Atom{{Name: ""}})
	none := EncodeSegment(nil)
	perAtom := len(one) - len(none) - 2 // minus the name-length prefix
	if perAtom != EncodedAttrBytes {
		t.Fatalf("per-atom record = %d bytes, want %d", perAtom, EncodedAttrBytes)
	}
}

func TestSegmentQuickRoundTrip(t *testing.T) {
	check := func(typ, pattern, rw, intensity, reuse uint8, props uint32, stride int64, name string) bool {
		atoms := []Atom{{
			ID:   0,
			Name: name,
			Attrs: Attributes{
				Type:        DataType(typ),
				Props:       DataProps(props),
				Pattern:     PatternType(pattern),
				StrideBytes: stride,
				RW:          RWChar(rw),
				Intensity:   intensity,
				Reuse:       reuse,
			},
		}}
		got, err := DecodeSegment(EncodeSegment(atoms))
		return err == nil && reflect.DeepEqual(atoms, got)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeSegment: DecodeSegmentLenient never panics, and the atoms of
// every segment it accepts encode to a segment that decodes to the same
// atoms. The seed corpus is committed under testdata/fuzz/FuzzDecodeSegment.
func FuzzDecodeSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		atoms, err := DecodeSegmentLenient(data)
		if err != nil {
			return
		}
		again, err := DecodeSegmentLenient(EncodeSegment(atoms))
		if err != nil {
			t.Fatalf("decode of a re-encoded segment: %v", err)
		}
		if !slices.Equal(again, atoms) {
			t.Fatalf("round trip decoded %+v, want %+v", again, atoms)
		}
	})
}

func TestGATLoadAndQuery(t *testing.T) {
	g := NewGAT()
	g.LoadAtoms(sampleAtoms())
	if g.Len() != 3 {
		t.Fatalf("len = %d, want 3", g.Len())
	}
	a, ok := g.Atom(1)
	if !ok || a.Name != "edges" {
		t.Fatalf("Atom(1) = %+v,%v", a, ok)
	}
	if _, ok := g.Atom(99); ok {
		t.Error("Atom(99) found")
	}
	if attrs := g.Attributes(99); attrs != (Attributes{}) {
		t.Error("unknown atom returned non-zero attributes")
	}
	if g.SizeBytes() != 3*EncodedAttrBytes {
		t.Errorf("SizeBytes = %d, want %d", g.SizeBytes(), 3*EncodedAttrBytes)
	}
	if len(g.All()) != 3 {
		t.Errorf("All() returned %d atoms", len(g.All()))
	}
}

func TestHomeAttributeRoundTrips(t *testing.T) {
	atoms := []Atom{{ID: 0, Name: "x", Attrs: Attributes{Home: HomeThread(3)}}}
	decoded, err := DecodeSegment(EncodeSegment(atoms))
	if err != nil {
		t.Fatal(err)
	}
	if th, ok := HomeOf(decoded[0].Attrs.Home); !ok || th != 3 {
		t.Errorf("decoded home = %d,%v, want thread 3", th, ok)
	}
	if _, ok := HomeOf(HomeNone); ok {
		t.Error("HomeNone decoded as a thread")
	}
}
