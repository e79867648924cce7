package server

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"graphflow"
)

// An /ingest body is decoded by hand, in one pass, straight into a
// pooled graphflow.Batch, without reflection or allocation. On every
// body both accept, decodeIngest produces the batch encoding/json
// produces from the same body into the equivalent struct, with the same
// key matching (unescaped, then case-insensitive as bytes.EqualFold),
// the same validation of the values it skips, the same nesting limit
// and the same integer rules. It rejects two bodies encoding/json takes:
// one with a repeated key, which encoding/json merges into the earlier
// value, and one with anything after the top-level value.

// maxIngestDepth is encoding/json's nesting limit.
const maxIngestDepth = 10000

// maxPooledIngestBody caps the body buffer a request hands back to the
// pool, so one bulk load cannot pin its buffer for the life of the
// process. Every batch element takes at least two body bytes ("0,",
// "{},"), so the batch slices are bounded by it too.
const maxPooledIngestBody = 64 << 10

var (
	errIngestSyntax    = errors.New("malformed JSON")
	errTrailingData    = errors.New("data after the top-level JSON value")
	errIngestDepth     = errors.New("JSON nested deeper than 10000 levels")
	errIngestDuplicate = errors.New("duplicate key in the batch or in one edge")
	errIngestShape     = errors.New(`want {"add_vertices":[label, ...], "add_edges":[{"src":s, "dst":d, "label":l}, ...], "delete_edges":[...]}`)
	errIngestVertexID  = errors.New("src and dst must be integers in [0, 4294967295]")
	errIngestLabel     = errors.New("labels must be integers in [0, 65535]")
)

// The field names of a batch and of one edge, in the order their
// decoders index them.
var (
	batchFields = [...]string{"add_vertices", "add_edges", "delete_edges"}
	edgeFields  = [...]string{"src", "dst", "label"}
)

// ingestScratch is what one /ingest reads its body and decodes its batch
// into. It is pooled: DB.Apply copies the batch, so nothing of it
// outlives the request.
type ingestScratch struct {
	body  bytes.Buffer
	batch graphflow.Batch
}

var ingestScratchPool = sync.Pool{New: func() any { return new(ingestScratch) }}

func getIngestScratch() *ingestScratch { return ingestScratchPool.Get().(*ingestScratch) }

// release returns sc to the pool unless its body buffer outgrew
// maxPooledIngestBody.
func (sc *ingestScratch) release() {
	if sc.body.Cap() <= maxPooledIngestBody {
		ingestScratchPool.Put(sc)
	}
}

// decodeIngest parses an /ingest body into b, reusing b's slices. An
// empty body or a top-level null is an empty batch, as a missing body
// is an empty object on every endpoint.
//
//gf:noalloc
func decodeIngest(body []byte, b *graphflow.Batch) error {
	b.AddVertices, b.AddEdges, b.DeleteEdges = b.AddVertices[:0], b.AddEdges[:0], b.DeleteEdges[:0]
	d := ingestDecoder{buf: body}
	if d.atEnd() {
		return nil
	}
	var err error
	switch d.buf[d.pos] {
	case '{':
		err = d.batch(b)
	case 'n':
		err = d.literal("null")
	default:
		err = errIngestShape
	}
	if err != nil {
		return err
	}
	if !d.atEnd() {
		return errTrailingData
	}
	return nil
}

// ingestDecoder is decodeIngest's cursor. Every method that parses a
// value starts with d.pos at the value's first byte and leaves it just
// past the value.
type ingestDecoder struct {
	buf []byte
	pos int
	// depth counts the containers open at pos; objects has bit i set
	// while the one open at depth i is an object, which is what skip
	// needs to know to close it.
	depth   int
	objects [maxIngestDepth/64 + 1]uint64
}

// atEnd skips whitespace and reports whether the body ends there.
func (d *ingestDecoder) atEnd() bool {
	for ; d.pos < len(d.buf); d.pos++ {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
		default:
			return false
		}
	}
	return true
}

// open consumes the '{' or '[' at d.pos and the whitespace after it.
func (d *ingestDecoder) open(c byte) error {
	d.pos++
	d.depth++
	if d.depth > maxIngestDepth {
		return errIngestDepth
	}
	bit := uint64(1) << (d.depth % 64)
	if c == '{' {
		d.objects[d.depth/64] |= bit
	} else {
		d.objects[d.depth/64] &^= bit
	}
	if d.atEnd() {
		return errIngestSyntax
	}
	return nil
}

// member steps to the next member of the object open at d.depth (first:
// right after its '{'). It returns done at the closing brace, which it
// consumes; otherwise the index in names of the field the key matches
// (-1 for none), with d.pos at the member's value.
func (d *ingestDecoder) member(first bool, names []string) (field int, done bool, err error) {
	if d.atEnd() {
		return -1, false, errIngestSyntax
	}
	switch c := d.buf[d.pos]; {
	case c == '}':
		d.pos++
		d.depth--
		return -1, true, nil
	case !first && c != ',':
		return -1, false, errIngestSyntax
	case !first:
		d.pos++
		if d.atEnd() {
			return -1, false, errIngestSyntax
		}
	}
	field, err = d.key(names)
	return field, false, err
}

// key consumes a member's key, its colon and the whitespace up to its
// value, and returns the index in names of the field the key matches, or
// -1.
func (d *ingestDecoder) key(names []string) (int, error) {
	if d.buf[d.pos] != '"' {
		return -1, errIngestSyntax
	}
	field, err := d.str(names)
	if err != nil {
		return -1, err
	}
	if d.atEnd() || d.buf[d.pos] != ':' {
		return -1, errIngestSyntax
	}
	d.pos++
	if d.atEnd() {
		return -1, errIngestSyntax
	}
	return field, nil
}

// element steps to the next element of the array open at d.depth
// (first: right after its '['). It reports done at the closing bracket,
// which it consumes; otherwise d.pos is at the element.
func (d *ingestDecoder) element(first bool) (done bool, err error) {
	if d.atEnd() {
		return false, errIngestSyntax
	}
	switch c := d.buf[d.pos]; {
	case c == ']':
		d.pos++
		d.depth--
		return true, nil
	case !first && c != ',':
		return false, errIngestSyntax
	case !first:
		d.pos++
		if d.atEnd() {
			return false, errIngestSyntax
		}
	}
	return false, nil
}

// batch decodes the top-level object.
func (d *ingestDecoder) batch(b *graphflow.Batch) error {
	if err := d.open('{'); err != nil {
		return err
	}
	var seen uint
	for first := true; ; first = false {
		f, done, err := d.member(first, batchFields[:])
		if err != nil || done {
			return err
		}
		if f >= 0 {
			if seen&(1<<f) != 0 {
				return errIngestDuplicate
			}
			seen |= 1 << f
		}
		switch f {
		case 0:
			err = d.labels(&b.AddVertices)
		case 1:
			err = d.edges(&b.AddEdges)
		case 2:
			err = d.edges(&b.DeleteEdges)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// labels decodes add_vertices: null (no vertices) or an array whose
// elements are labels or null (label 0).
func (d *ingestDecoder) labels(dst *[]uint16) error {
	switch d.buf[d.pos] {
	case 'n':
		return d.literal("null")
	case '[':
	default:
		return errIngestShape
	}
	if err := d.open('['); err != nil {
		return err
	}
	for first := true; ; first = false {
		done, err := d.element(first)
		if err != nil || done {
			return err
		}
		v, err := d.integer(math.MaxUint16, errIngestLabel)
		if err != nil {
			return err
		}
		*dst = append(*dst, uint16(v))
	}
}

// edges decodes add_edges or delete_edges: null (no edges) or an array
// whose elements are edge objects or null (the zero edge).
func (d *ingestDecoder) edges(dst *[]graphflow.EdgeOp) error {
	switch d.buf[d.pos] {
	case 'n':
		return d.literal("null")
	case '[':
	default:
		return errIngestShape
	}
	if err := d.open('['); err != nil {
		return err
	}
	for first := true; ; first = false {
		done, err := d.element(first)
		if err != nil || done {
			return err
		}
		*dst = append(*dst, graphflow.EdgeOp{})
		switch d.buf[d.pos] {
		case 'n':
			err = d.literal("null")
		case '{':
			err = d.edge(&(*dst)[len(*dst)-1])
		default:
			err = errIngestShape
		}
		if err != nil {
			return err
		}
	}
}

// edge decodes one edge object into the zero edge e.
func (d *ingestDecoder) edge(e *graphflow.EdgeOp) error {
	if err := d.open('{'); err != nil {
		return err
	}
	var seen uint
	for first := true; ; first = false {
		f, done, err := d.member(first, edgeFields[:])
		if err != nil || done {
			return err
		}
		if f >= 0 {
			if seen&(1<<f) != 0 {
				return errIngestDuplicate
			}
			seen |= 1 << f
		}
		var v uint64
		switch f {
		case 0:
			v, err = d.integer(math.MaxUint32, errIngestVertexID)
			e.Src = uint32(v)
		case 1:
			v, err = d.integer(math.MaxUint32, errIngestVertexID)
			e.Dst = uint32(v)
		case 2:
			v, err = d.integer(math.MaxUint16, errIngestLabel)
			e.Label = uint16(v)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// integer parses a label or vertex ID as encoding/json decodes a number
// into an unsigned Go integer: strconv.ParseUint's grammar, so a sign,
// fraction or exponent is an error (bad) even where the value is whole,
// and so is anything above max or a value that is not a number. null is
// 0: it leaves the fresh element or field it lands in at its zero.
func (d *ingestDecoder) integer(max uint64, bad error) (uint64, error) {
	if d.buf[d.pos] == 'n' {
		return 0, d.literal("null")
	}
	start := d.pos
	var v uint64
	for ; d.pos < len(d.buf) && '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9'; d.pos++ {
		v = v*10 + uint64(d.buf[d.pos]-'0')
		if v > max {
			return 0, bad
		}
	}
	switch {
	case d.pos == start:
		return 0, bad
	case d.buf[start] == '0' && d.pos-start > 1:
		return 0, errIngestSyntax
	case d.pos < len(d.buf) && (d.buf[d.pos] == '.' || d.buf[d.pos] == 'e' || d.buf[d.pos] == 'E'):
		return 0, bad
	}
	return v, nil
}

// skip consumes a value the batch does not use, validating it as
// encoding/json's scanner does. Containers are tracked in d.objects, not
// by recursion, so the deepest value the nesting limit admits costs no
// stack.
func (d *ingestDecoder) skip() error {
	base := d.depth
	for {
		var err error
		switch c := d.buf[d.pos]; c {
		case '{', '[':
			if err := d.open(c); err != nil {
				return err
			}
			switch {
			case c == '{' && d.buf[d.pos] == '}', c == '[' && d.buf[d.pos] == ']':
				d.pos++
				d.depth--
			case c == '{':
				if _, err := d.key(nil); err != nil {
					return err
				}
				continue
			default:
				continue
			}
		case '"':
			_, err = d.str(nil)
		case 't':
			err = d.literal("true")
		case 'f':
			err = d.literal("false")
		case 'n':
			err = d.literal("null")
		default:
			err = d.number()
		}
		if err != nil {
			return err
		}
		// Close the containers that end after this value, then go on to
		// the next element or member, if one opened since base follows.
		for {
			if d.depth == base {
				return nil
			}
			if d.atEnd() {
				return errIngestSyntax
			}
			object := d.objects[d.depth/64]&(1<<(d.depth%64)) != 0
			c := d.buf[d.pos]
			if c == '}' && object || c == ']' && !object {
				d.pos++
				d.depth--
				continue
			}
			if c != ',' {
				return errIngestSyntax
			}
			d.pos++
			if d.atEnd() {
				return errIngestSyntax
			}
			if object {
				if _, err := d.key(nil); err != nil {
					return err
				}
			}
			break
		}
	}
}

// literal consumes word (true, false or null).
func (d *ingestDecoder) literal(word string) error {
	if len(d.buf)-d.pos < len(word) {
		return errIngestSyntax
	}
	for i := 0; i < len(word); i++ {
		if d.buf[d.pos+i] != word[i] {
			return errIngestSyntax
		}
	}
	d.pos += len(word)
	return nil
}

// number consumes a JSON number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *ingestDecoder) number() error {
	if d.buf[d.pos] == '-' {
		d.pos++
	}
	switch {
	case d.pos < len(d.buf) && d.buf[d.pos] == '0':
		d.pos++
	case d.digits() == 0:
		return errIngestSyntax
	}
	if d.pos < len(d.buf) && d.buf[d.pos] == '.' {
		d.pos++
		if d.digits() == 0 {
			return errIngestSyntax
		}
	}
	if d.pos < len(d.buf) && (d.buf[d.pos] == 'e' || d.buf[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.buf) && (d.buf[d.pos] == '+' || d.buf[d.pos] == '-') {
			d.pos++
		}
		if d.digits() == 0 {
			return errIngestSyntax
		}
	}
	return nil
}

// digits consumes a run of decimal digits and returns its length.
func (d *ingestDecoder) digits() int {
	start := d.pos
	for d.pos < len(d.buf) && '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9' {
		d.pos++
	}
	return d.pos - start
}

// str consumes a string, validating it as encoding/json's scanner does
// (no raw control characters, only its escapes), and returns the index
// in names of the field name it matches as a key, or -1.
func (d *ingestDecoder) str(names []string) (int, error) {
	d.pos++
	start, escaped := d.pos, false
	for d.pos < len(d.buf) {
		c := d.buf[d.pos]
		switch {
		case c == '"':
			raw := d.buf[start:d.pos]
			d.pos++
			if escaped {
				return matchEscaped(raw, names), nil
			}
			return match(raw, names), nil
		case c < 0x20:
			return -1, errIngestSyntax
		case c != '\\':
			d.pos++
			continue
		}
		escaped = true
		if d.pos+1 >= len(d.buf) {
			return -1, errIngestSyntax
		}
		switch d.buf[d.pos+1] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			d.pos += 2
		case 'u':
			if d.pos+6 > len(d.buf) || hex4(d.buf[d.pos+2:d.pos+6]) < 0 {
				return -1, errIngestSyntax
			}
			d.pos += 6
		default:
			return -1, errIngestSyntax
		}
	}
	return -1, errIngestSyntax
}

// match returns the index in names of the name key equals under
// encoding/json's key matching, or -1.
func match(key []byte, names []string) int {
	for i, name := range names {
		if foldEqual(key, name) {
			return i
		}
	}
	return -1
}

// matchEscaped is match for a validated key that holds escapes: it
// unescapes the key as encoding/json does (a lone surrogate and invalid
// UTF-8 become U+FFFD) into a buffer on the stack. A key that does not
// fit is longer than every spelling of every field name.
func matchEscaped(raw []byte, names []string) int {
	var buf [32]byte
	n := 0
	for i := 0; i < len(raw); {
		r, size := utf8.DecodeRune(raw[i:])
		if r == '\\' {
			if raw[i+1] != 'u' {
				return -1 // \" \\ \/ \b \f \n \r \t: no field name has these
			}
			r, size = hex4(raw[i+2:i+6]), 6
			if utf16.IsSurrogate(r) {
				// A pair is one rune; a lone half is U+FFFD, and whatever
				// follows it is read on its own.
				low := rune(-1)
				if j := i + 6; j+6 <= len(raw) && raw[j] == '\\' && raw[j+1] == 'u' {
					low = hex4(raw[j+2 : j+6])
				}
				if r = utf16.DecodeRune(r, low); r != unicode.ReplacementChar {
					size = 12
				}
			}
		}
		i += size
		if n+utf8.UTFMax > len(buf) {
			return -1
		}
		n += utf8.EncodeRune(buf[n:], r)
	}
	return match(buf[:n], names)
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// foldEqual is bytes.EqualFold(key, []byte(name)) for a lower-case ASCII
// name: the test encoding/json applies to a key that is not spelled
// exactly as a field. Besides ASCII case, a rune matches a letter whose
// Unicode simple-fold orbit it is on (ſ matches s).
func foldEqual(key []byte, name string) bool {
	i := 0
	for j := 0; j < len(name); j++ {
		if i == len(key) {
			return false
		}
		if c := key[i]; c < utf8.RuneSelf {
			if c != name[j] && !('A' <= c && c <= 'Z' && c+'a'-'A' == name[j]) {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(key[i:])
		i += size
		want := rune(name[j])
		f := unicode.SimpleFold(r)
		for f != r && f != want {
			f = unicode.SimpleFold(f)
		}
		if f != want {
			return false
		}
	}
	return i == len(key)
}
