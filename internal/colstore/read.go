package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"nra/internal/relation"
	"nra/internal/stats"
	"nra/internal/value"
	"nra/internal/vec"
)

// Reader decodes a segment file image. It is immutable after Open and
// safe for concurrent use; decoding allocates fresh vectors, so callers
// (the catalog's column store) memoize decoded columns themselves.
type Reader struct {
	data []byte
	ft   *Footer
}

// Open verifies the segment's magic and footer checksum and decodes the
// directory. It validates every block reference against the file bounds
// so later decodes cannot read out of range; torn or truncated files
// return an error here or from decode, never a panic.
func Open(data []byte) (*Reader, error) {
	if len(data) < len(magicHeader)+tailLen {
		return nil, fmt.Errorf("colstore: segment truncated (%d bytes)", len(data))
	}
	if string(data[:len(magicHeader)]) != magicHeader {
		return nil, fmt.Errorf("colstore: bad segment magic")
	}
	tail := data[len(data)-tailLen:]
	if string(tail[12:]) != magicTail {
		return nil, fmt.Errorf("colstore: bad segment tail magic")
	}
	ftLen := binary.LittleEndian.Uint64(tail[:8])
	ftCRC := binary.LittleEndian.Uint32(tail[8:12])
	end := len(data) - tailLen
	if ftLen > uint64(end-len(magicHeader)) {
		return nil, fmt.Errorf("colstore: footer length %d out of range", ftLen)
	}
	fj := data[end-int(ftLen) : end]
	if crc32.ChecksumIEEE(fj) != ftCRC {
		return nil, fmt.Errorf("colstore: footer checksum mismatch")
	}
	ft, err := unmarshalFooter(fj)
	if err != nil {
		return nil, err
	}
	if ft.Version != version {
		return nil, fmt.Errorf("colstore: unsupported segment version %d", ft.Version)
	}
	r := &Reader{data: data, ft: ft}
	if err := r.validate(int64(end - int(ftLen))); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Reader) validate(payloadEnd int64) error {
	ft := r.ft
	if ft.GroupRows <= 0 || ft.GroupRows%64 != 0 {
		return fmt.Errorf("colstore: group size %d is not a positive multiple of 64", ft.GroupRows)
	}
	checkRef := func(b BlockRef) error {
		if b.Off < int64(len(magicHeader)) || b.Len < 0 || b.Off+b.Len > payloadEnd {
			return fmt.Errorf("colstore: block [%d,+%d) out of segment bounds", b.Off, b.Len)
		}
		return nil
	}
	for _, c := range ft.Cols {
		if c.Dict != (BlockRef{}) {
			if err := checkRef(c.Dict); err != nil {
				return err
			}
		}
	}
	total := 0
	for gi, g := range ft.Groups {
		if g.Rows <= 0 || g.Rows > ft.GroupRows {
			return fmt.Errorf("colstore: group %d has %d rows", gi, g.Rows)
		}
		// Every group but the last must be full: decoders compute group
		// row offsets as g*GroupRows, and pruning skips whole groups by
		// that arithmetic.
		if gi < len(ft.Groups)-1 && g.Rows != ft.GroupRows {
			return fmt.Errorf("colstore: group %d has %d rows, want %d (only the last group may be short)", gi, g.Rows, ft.GroupRows)
		}
		if len(g.Blocks) != len(ft.Cols) || len(g.Zones) != len(ft.Cols) {
			return fmt.Errorf("colstore: group %d directory is ragged", gi)
		}
		for _, b := range g.Blocks {
			if err := checkRef(b); err != nil {
				return err
			}
		}
		total += g.Rows
	}
	if total != ft.Rows {
		return fmt.Errorf("colstore: groups sum to %d rows, footer says %d", total, ft.Rows)
	}
	return nil
}

// Footer returns the decoded segment directory.
func (r *Reader) Footer() *Footer { return r.ft }

// Rows returns the segment's row count.
func (r *Reader) Rows() int { return r.ft.Rows }

// Column decodes column c across every row group into one full-height
// vector, observationally identical to vec.ColumnVector over the
// original rows.
func (r *Reader) Column(c int) (*vec.Vector, error) {
	d, err := r.NewColumnDecoder(c)
	if err != nil {
		return nil, err
	}
	if err := d.EnsureGroups(nil); err != nil {
		return nil, err
	}
	return d.Vector(), nil
}

// ColumnDecoder decodes one column group-at-a-time into a shared
// full-height vector, so a zone-map-pruned scan never pays to decode
// the bytes of groups it skips. Undecoded regions of the vector hold
// zero payloads and clear NULL bits — readers must touch only rows of
// groups they have ensured. The decoder itself is not safe for
// concurrent use (the catalog serializes Ensure calls under its column
// lock), but once a group is decoded its vector region never changes,
// so readers that observed the Ensure may read it freely.
type ColumnDecoder struct {
	r    *Reader
	c    int
	v    *vec.Vector
	done []bool
}

// NewColumnDecoder allocates the decoder and full-height vector for
// column c. Dictionary columns read their (whole-column) dictionary
// section here. Plain string columns (EncStr) decode every group
// eagerly instead: their dictionary is rebuilt by appending in row
// order, and a shared vector's Dict must not grow after readers hold
// it — lazy decoding would reorder or race those appends.
func (r *Reader) NewColumnDecoder(c int) (*ColumnDecoder, error) {
	ft := r.ft
	if c < 0 || c >= len(ft.Cols) {
		return nil, fmt.Errorf("colstore: column %d out of range", c)
	}
	cm := ft.Cols[c]
	d := &ColumnDecoder{r: r, c: c, v: newVector(cm.Enc, ft.Rows), done: make([]bool, len(ft.Groups))}
	if cm.Enc == EncDict {
		dict, err := r.readDict(cm.Dict)
		if err != nil {
			return nil, err
		}
		d.v.Dict = dict
	}
	if cm.Enc == EncStr {
		strCodes := make(map[string]int32)
		start := 0
		for gi := range ft.Groups {
			g := &ft.Groups[gi]
			if err := r.decodeBlock(d.v, cm.Enc, g.Blocks[c], start, g.Rows, strCodes); err != nil {
				return nil, fmt.Errorf("colstore: column %q group %d: %w", cm.Name, gi, err)
			}
			d.done[gi] = true
			start += g.Rows
		}
	}
	return d, nil
}

// Vector returns the shared full-height vector. Only rows of ensured
// groups are meaningful.
func (d *ColumnDecoder) Vector() *vec.Vector { return d.v }

// EnsureGroups decodes every not-yet-decoded group g with skip[g]
// false (nil skip = all groups). Groups live at fixed row offsets
// (g*GroupRows), so ensuring them in any order yields identical bytes.
func (d *ColumnDecoder) EnsureGroups(skip []bool) error {
	ft := d.r.ft
	cm := ft.Cols[d.c]
	for gi := range ft.Groups {
		if d.done[gi] || (gi < len(skip) && skip[gi]) {
			continue
		}
		g := &ft.Groups[gi]
		if err := d.r.decodeBlock(d.v, cm.Enc, g.Blocks[d.c], gi*ft.GroupRows, g.Rows, nil); err != nil {
			return fmt.Errorf("colstore: column %q group %d: %w", cm.Name, gi, err)
		}
		d.done[gi] = true
	}
	return nil
}

// newVector allocates a full-height vector shaped for the encoding.
func newVector(enc string, n int) *vec.Vector {
	return vec.NewVector(kindForEnc(enc), n)
}

func kindForEnc(enc string) value.Kind {
	switch enc {
	case EncInt:
		return value.KindInt
	case EncBool:
		return value.KindBool
	case EncFloat:
		return value.KindFloat
	case EncDict, EncStr:
		return value.KindString
	default:
		return value.KindNull
	}
}

func (r *Reader) readDict(ref BlockRef) ([]string, error) {
	b := byteReader{data: r.data[ref.Off : ref.Off+ref.Len]}
	count, err := b.uvarint()
	if err != nil {
		return nil, err
	}
	if count > uint64(ref.Len) {
		return nil, fmt.Errorf("colstore: dictionary count %d exceeds section size", count)
	}
	dict := make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		s, err := b.str()
		if err != nil {
			return nil, err
		}
		dict = append(dict, s)
	}
	return dict, nil
}

// decodeBlock decodes one row group's block into rows [start,
// start+rows) of the full-height vector. start is word-aligned for
// every group but (possibly) the last, which has no successor, so the
// NULL bitmap words copy straight in.
func (r *Reader) decodeBlock(v *vec.Vector, enc string, ref BlockRef, start, rows int, strCodes map[string]int32) error {
	b := byteReader{data: r.data[ref.Off : ref.Off+ref.Len]}
	words, err := b.words(value.NullWords(rows))
	if err != nil {
		return err
	}
	copy(v.Nulls[start>>6:], words)
	switch enc {
	case EncInt:
		mn, err := b.varint()
		if err != nil {
			return err
		}
		width, err := b.byte()
		if err != nil {
			return err
		}
		if int(width) > 64 {
			return fmt.Errorf("bit width %d", width)
		}
		if err := unpack(&b, int(width), rows, func(i int, d uint64) {
			v.Ints[start+i] = int64(uint64(mn) + d)
		}); err != nil {
			return err
		}
		if int(width) == 0 && mn != 0 {
			for i := 0; i < rows; i++ {
				v.Ints[start+i] = mn
			}
		}
		// NULL slots packed delta 0 and decoded as the group minimum;
		// re-zero them to match vec.ColumnVector's zero payloads.
		for i := start; i < start+rows; i++ {
			if v.Nulls.Get(i) {
				v.Ints[i] = 0
			}
		}
	case EncFloat:
		raw, err := b.bytes(rows * 8)
		if err != nil {
			return err
		}
		for i := 0; i < rows; i++ {
			v.Floats[start+i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
	case EncBool:
		bitWords, err := b.words(value.NullWords(rows))
		if err != nil {
			return err
		}
		for i := 0; i < rows; i++ {
			if bitWords[i>>6]>>(uint(i)&63)&1 != 0 {
				v.Ints[start+i] = 1
			}
		}
	case EncDict:
		width, err := b.byte()
		if err != nil {
			return err
		}
		if cw := codeWidth(len(v.Dict)); int(width) != cw {
			return fmt.Errorf("code width %d, dictionary needs %d", width, cw)
		}
		dictLen := len(v.Dict)
		var oob error
		if err := unpack(&b, int(width), rows, func(i int, d uint64) {
			if d >= uint64(dictLen) && oob == nil {
				if dictLen == 0 && d == 0 {
					return // all-NULL group in a dictionary column
				}
				oob = fmt.Errorf("dictionary code %d out of range", d)
				return
			}
			v.Codes[start+i] = int32(d)
		}); err != nil {
			return err
		}
		if oob != nil {
			return oob
		}
	case EncStr:
		for i := 0; i < rows; i++ {
			if v.Nulls.Get(start + i) {
				continue
			}
			s, err := b.str()
			if err != nil {
				return err
			}
			code, ok := strCodes[s]
			if !ok {
				code = int32(len(v.Dict))
				strCodes[s] = code
				v.Dict = append(v.Dict, s)
			}
			v.Codes[start+i] = code
		}
	case EncBoxed:
		for i := 0; i < rows; i++ {
			val, err := b.boxed()
			if err != nil {
				return err
			}
			v.Vals[start+i] = val
		}
	default:
		return fmt.Errorf("unknown encoding %q", enc)
	}
	return nil
}

// unpack reads n width-bit values packed LSB-first into little-endian
// words and calls set for each. width 0 means every value is 0.
func unpack(b *byteReader, width, n int, set func(i int, d uint64)) error {
	if width == 0 {
		return nil
	}
	words, err := b.words((n*width + 63) / 64)
	if err != nil {
		return err
	}
	mask := widthMask(width)
	for i := 0; i < n; i++ {
		p := i * width
		x := words[p>>6] >> (uint(p) & 63)
		if rem := 64 - (p & 63); rem < width {
			x |= words[p>>6+1] << uint(rem)
		}
		set(i, x&mask)
	}
	return nil
}

// RelationFor materializes the whole segment as a relation over the
// given schema (the catalog's column order, which matches the footer's;
// names compare unqualified). Decoded columns flow through the same
// batch materialization the vectorized executor uses.
func (r *Reader) RelationFor(schema *relation.Schema) (*relation.Relation, error) {
	ft := r.ft
	if len(schema.Cols) != len(ft.Cols) {
		return nil, fmt.Errorf("colstore: schema has %d columns, segment %d", len(schema.Cols), len(ft.Cols))
	}
	for i, sc := range schema.Cols {
		if unqualify(sc.Name) != ft.Cols[i].Name {
			return nil, fmt.Errorf("colstore: column %d is %q in schema, %q in segment", i, unqualify(sc.Name), ft.Cols[i].Name)
		}
	}
	cols := make([]*vec.Vector, len(ft.Cols))
	for c := range ft.Cols {
		v, err := r.Column(c)
		if err != nil {
			return nil, err
		}
		cols[c] = v
	}
	b := &vec.Batch{Schema: schema, Cols: cols, Start: 0, End: ft.Rows}
	return b.ToRelation(), nil
}

// Seeds folds the zone maps into per-column ANALYZE seeds (exact
// min/max and NULL counts) for stats.CollectSeeded. A column's seed is
// withheld when any of its groups lacks bounds without being all-NULL —
// boxed columns and NaN-bearing float groups — so ANALYZE recomputes
// those columns from the rows.
func (r *Reader) Seeds() []stats.ColumnSeed {
	ft := r.ft
	seeds := make([]stats.ColumnSeed, len(ft.Cols))
	for c := range ft.Cols {
		s := stats.ColumnSeed{Valid: true, Rows: ft.Rows, Min: value.Null, Max: value.Null}
		for gi := range ft.Groups {
			z := &ft.Groups[gi].Zones[c]
			s.Nulls += z.Nulls
			if !z.HasBounds {
				if z.Nulls != z.Rows {
					s.Valid = false
					break
				}
				continue
			}
			if s.Min.IsNull() || value.Less(z.Min, s.Min) {
				s.Min = z.Min
			}
			if s.Max.IsNull() || value.Less(s.Max, z.Max) {
				s.Max = z.Max
			}
		}
		seeds[c] = s
	}
	return seeds
}

// byteReader is a bounds-checked cursor over a block's bytes.
type byteReader struct {
	data []byte
	pos  int
}

func (b *byteReader) bytes(n int) ([]byte, error) {
	if n < 0 || b.pos+n > len(b.data) {
		return nil, fmt.Errorf("block truncated at byte %d (want %d more)", b.pos, n)
	}
	out := b.data[b.pos : b.pos+n]
	b.pos += n
	return out, nil
}

func (b *byteReader) byte() (byte, error) {
	raw, err := b.bytes(1)
	if err != nil {
		return 0, err
	}
	return raw[0], nil
}

func (b *byteReader) words(n int) ([]uint64, error) {
	raw, err := b.bytes(n * 8)
	if err != nil {
		return nil, err
	}
	words := make([]uint64, n)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(raw[i*8:])
	}
	return words, nil
}

func (b *byteReader) uvarint() (uint64, error) {
	x, n := binary.Uvarint(b.data[b.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("bad uvarint at byte %d", b.pos)
	}
	b.pos += n
	return x, nil
}

func (b *byteReader) varint() (int64, error) {
	x, n := binary.Varint(b.data[b.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("bad varint at byte %d", b.pos)
	}
	b.pos += n
	return x, nil
}

func (b *byteReader) str() (string, error) {
	n, err := b.uvarint()
	if err != nil {
		return "", err
	}
	raw, err := b.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

func (b *byteReader) boxed() (value.Value, error) {
	tag, err := b.byte()
	if err != nil {
		return value.Null, err
	}
	switch tag {
	case boxNull:
		return value.Null, nil
	case boxInt:
		x, err := b.varint()
		if err != nil {
			return value.Null, err
		}
		return value.Int(x), nil
	case boxFloat:
		raw, err := b.bytes(8)
		if err != nil {
			return value.Null, err
		}
		return value.Float(math.Float64frombits(binary.LittleEndian.Uint64(raw))), nil
	case boxStr:
		s, err := b.str()
		if err != nil {
			return value.Null, err
		}
		return value.Str(s), nil
	case boxBool:
		x, err := b.byte()
		if err != nil {
			return value.Null, err
		}
		return value.Bool(x != 0), nil
	}
	return value.Null, fmt.Errorf("unknown boxed tag %d", tag)
}
