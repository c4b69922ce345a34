package layout

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"mpl/internal/geom"
)

// Binary layout format (".layb"): a compact little-endian encoding for the
// large benchmark layouts, about 6× smaller than the text format and much
// faster to parse. Layout:
//
//	magic   [4]byte  "MPLB"
//	version uint16   (1)
//	name    uint16 length + bytes
//	process 3 × int32 (wm, sm, hp)
//	count   uint32   feature count
//	per feature: uint16 rect count, then 4 × int32 per rect
//	            (x0, y0 stored raw; x1, y1 stored as width, height)
var binaryMagic = [4]byte{'M', 'P', 'L', 'B'}

const binaryVersion = 1

// WriteBinary serializes the layout in the binary format.
func (l *Layout) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	name := []byte(sanitizeName(l.Name))
	if len(name) > 0xFFFF {
		return fmt.Errorf("layout: name too long (%d bytes)", len(name))
	}
	le := binary.LittleEndian
	var scratch [8]byte
	writeU16 := func(v uint16) {
		le.PutUint16(scratch[:2], v)
		bw.Write(scratch[:2])
	}
	writeU32 := func(v uint32) {
		le.PutUint32(scratch[:4], v)
		bw.Write(scratch[:4])
	}
	// writeI32 refuses values int32 cannot hold rather than truncating
	// them into a different layout.
	writeI32 := func(v int) bool {
		if v != int(int32(v)) {
			return false
		}
		writeU32(uint32(int32(v)))
		return true
	}

	writeU16(binaryVersion)
	writeU16(uint16(len(name)))
	bw.Write(name)
	if p := l.Process; !writeI32(p.MinWidth) || !writeI32(p.MinSpace) || !writeI32(p.HalfPitch) {
		return fmt.Errorf("layout: process %+v does not fit the binary format's int32 fields", p)
	}
	writeU32(uint32(len(l.Features)))
	for fi, f := range l.Features {
		if len(f.Rects) > 0xFFFF {
			return fmt.Errorf("layout: feature %d has %d rects (max 65535)", fi, len(f.Rects))
		}
		writeU16(uint16(len(f.Rects)))
		for _, r := range f.Rects {
			if !r.Valid() {
				return fmt.Errorf("layout: feature %d has invalid rect %v", fi, r)
			}
			if !writeI32(r.X0) || !writeI32(r.Y0) || !writeI32(r.Width()) || !writeI32(r.Height()) {
				return fmt.Errorf("layout: feature %d rect %v does not fit the binary format's int32 fields", fi, r)
			}
		}
	}
	return bw.Flush()
}

// ReadBinary parses the binary format produced by WriteBinary.
func ReadBinary(r io.Reader) (*Layout, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("layout: reading magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("layout: bad magic %q", magic)
	}
	le := binary.LittleEndian
	var scratch [4]byte
	readU16 := func() (uint16, error) {
		if _, err := io.ReadFull(br, scratch[:2]); err != nil {
			return 0, err
		}
		return le.Uint16(scratch[:2]), nil
	}
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return 0, err
		}
		return le.Uint32(scratch[:4]), nil
	}
	readI32 := func() (int, error) {
		v, err := readU32()
		return int(int32(v)), err
	}

	ver, err := readU16()
	if err != nil {
		return nil, fmt.Errorf("layout: reading version: %w", err)
	}
	if ver != binaryVersion {
		return nil, fmt.Errorf("layout: unsupported binary version %d", ver)
	}
	nameLen, err := readU16()
	if err != nil {
		return nil, err
	}
	nameBytes := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBytes); err != nil {
		return nil, err
	}
	l := New(string(nameBytes))
	if l.Process.MinWidth, err = readI32(); err != nil {
		return nil, err
	}
	if l.Process.MinSpace, err = readI32(); err != nil {
		return nil, err
	}
	if l.Process.HalfPitch, err = readI32(); err != nil {
		return nil, err
	}
	count, err := readU32()
	if err != nil {
		return nil, err
	}
	const maxFeatures = 1 << 28 // sanity bound against corrupt headers
	if count > maxFeatures {
		return nil, fmt.Errorf("layout: implausible feature count %d", count)
	}
	for fi := uint32(0); fi < count; fi++ {
		nr, err := readU16()
		if err != nil {
			return nil, fmt.Errorf("layout: feature %d header: %w", fi, err)
		}
		if nr == 0 {
			return nil, fmt.Errorf("layout: feature %d is empty", fi)
		}
		pg := geom.Polygon{Rects: make([]geom.Rect, 0, int(nr))}
		for ri := 0; ri < int(nr); ri++ {
			x0, err := readI32()
			if err != nil {
				return nil, err
			}
			y0, err := readI32()
			if err != nil {
				return nil, err
			}
			w, err := readI32()
			if err != nil {
				return nil, err
			}
			h, err := readI32()
			if err != nil {
				return nil, err
			}
			if w <= 0 || h <= 0 {
				return nil, fmt.Errorf("layout: feature %d rect %d has non-positive size %d×%d", fi, ri, w, h)
			}
			pg.Rects = append(pg.Rects, geom.Rect{X0: x0, Y0: y0, X1: x0 + w, Y1: y0 + h})
		}
		l.Features = append(l.Features, pg)
	}
	return l, nil
}

// WriteBinaryFile serializes the layout to path in binary form.
func (l *Layout) WriteBinaryFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := l.WriteBinary(f); err != nil {
		return err
	}
	return f.Close()
}

// ReadAny parses path as binary when it has the binary magic, text
// otherwise — the loader the command-line tools use.
func ReadAny(path string) (*Layout, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head, err := br.Peek(4)
	if err == nil && len(head) == 4 && [4]byte(head) == binaryMagic {
		return ReadBinary(br)
	}
	return Read(br)
}
