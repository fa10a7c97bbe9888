package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// The atom segment (§3.5.2) is the metadata section the compiler emits into
// the program object file: the full list of statically-created atoms and
// their immutable attributes, prefixed with a version identifier so the
// information format can evolve across architecture generations while
// remaining forward/backward compatible. The OS reads it at load time and
// fills the GAT.

// segmentMagic identifies an atom segment.
var segmentMagic = [8]byte{'X', 'M', 'E', 'M', 'A', 'T', 'O', 'M'}

// SegmentVersion is the format version this implementation emits.
const SegmentVersion uint16 = 1

// ErrNotAtomSegment reports that the byte stream is not an atom segment.
var ErrNotAtomSegment = errors.New("core: not an atom segment")

// ErrUnknownSegmentVersion reports a version this implementation does not
// understand. Per §3.5.2, older architectures ignore unknown formats; use
// DecodeSegmentLenient for that behaviour.
var ErrUnknownSegmentVersion = errors.New("core: unknown atom segment version")

// maxSiteBytes is the longest atom name (creation-site label) the atom
// segment holds: the name table stores each length as a uint16.
const maxSiteBytes = 1<<16 - 1

// EncodeSegment serializes atoms (ordered by ID) into an atom segment. Every
// name must be at most 65,535 bytes long, which Lib.CreateAtom guarantees;
// a longer one corrupts the name table.
func EncodeSegment(atoms []Atom) []byte {
	var buf bytes.Buffer
	buf.Write(segmentMagic[:])
	var hdr [4]byte
	binary.LittleEndian.PutUint16(hdr[0:2], SegmentVersion)
	binary.LittleEndian.PutUint16(hdr[2:4], uint16(len(atoms)))
	buf.Write(hdr[:])
	for _, a := range atoms {
		var rec [EncodedAttrBytes]byte
		rec[0] = byte(a.Attrs.Type)
		binary.LittleEndian.PutUint32(rec[1:5], uint32(a.Attrs.Props))
		rec[5] = byte(a.Attrs.Pattern)
		binary.LittleEndian.PutUint64(rec[6:14], uint64(a.Attrs.StrideBytes))
		rec[14] = byte(a.Attrs.RW)
		rec[15] = a.Attrs.Intensity
		rec[16] = a.Attrs.Reuse
		rec[17] = a.Attrs.Home
		buf.Write(rec[:])
	}
	// Name table: creation-site labels, length-prefixed.
	for _, a := range atoms {
		var n [2]byte
		binary.LittleEndian.PutUint16(n[:], uint16(len(a.Name)))
		buf.Write(n[:])
		buf.WriteString(a.Name)
	}
	return buf.Bytes()
}

// DecodeSegment parses an atom segment, returning the atoms in ID order.
func DecodeSegment(data []byte) ([]Atom, error) {
	if len(data) < 12 || !bytes.Equal(data[:8], segmentMagic[:]) {
		return nil, ErrNotAtomSegment
	}
	version := binary.LittleEndian.Uint16(data[8:10])
	if version != SegmentVersion {
		return nil, fmt.Errorf("%w: %d", ErrUnknownSegmentVersion, version)
	}
	count := int(binary.LittleEndian.Uint16(data[10:12]))
	body := data[12:]
	if len(body) < count*EncodedAttrBytes {
		return nil, fmt.Errorf("core: truncated atom segment: %d atoms need %d bytes, have %d",
			count, count*EncodedAttrBytes, len(body))
	}
	atoms := make([]Atom, count)
	for i := 0; i < count; i++ {
		rec := body[i*EncodedAttrBytes : (i+1)*EncodedAttrBytes]
		atoms[i] = Atom{
			ID: AtomID(i),
			Attrs: Attributes{
				Type:        DataType(rec[0]),
				Props:       DataProps(binary.LittleEndian.Uint32(rec[1:5])),
				Pattern:     PatternType(rec[5]),
				StrideBytes: int64(binary.LittleEndian.Uint64(rec[6:14])),
				RW:          RWChar(rec[14]),
				Intensity:   rec[15],
				Reuse:       rec[16],
				Home:        rec[17],
			},
		}
	}
	names := body[count*EncodedAttrBytes:]
	for i := 0; i < count; i++ {
		if len(names) < 2 {
			return nil, errors.New("core: truncated atom segment name table")
		}
		n := int(binary.LittleEndian.Uint16(names[:2]))
		names = names[2:]
		if len(names) < n {
			return nil, errors.New("core: truncated atom segment name")
		}
		atoms[i].Name = string(names[:n])
		names = names[n:]
	}
	return atoms, nil
}

// DecodeSegmentLenient parses an atom segment, returning no atoms (and no
// error) when the version is unknown: an older XMem architecture simply sees
// a program with no expressed semantics (§3.5.2).
func DecodeSegmentLenient(data []byte) ([]Atom, error) {
	atoms, err := DecodeSegment(data)
	if errors.Is(err, ErrUnknownSegmentVersion) {
		return nil, nil
	}
	return atoms, err
}
