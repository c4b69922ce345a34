package main

// Request decoding for POST /v1/decompose and /v1/decompose/batch. One pass
// over the body scans layout.features straight into geom.Rects: every
// rectangle lands in one arena shared by the body, and each feature's
// polygon is a full-slice-expression window of it, so no append can run
// into a neighbour. Every other member is located with a validating skip
// and handed to encoding/json, which keeps option semantics exactly as
// encoding/json defines them: case-insensitive key match, the last
// duplicate wins (struct values merge, as encoding/json merges them),
// null leaves a scalar unchanged, unknown keys are ignored, and 1e2 or 1.5
// into an int is an error. Bytes after the first top-level value are
// ignored, as json.Decoder.Decode ignores them.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"mpl/internal/geom"
	"mpl/internal/layout"
)

// maxNesting is encoding/json's nesting limit; deeper input is a syntax
// error here as it is there.
const maxNesting = 10000

var (
	keyLayout   = []byte("layout")
	keyFeatures = []byte("features")
	keyRequests = []byte("requests")
)

// errRectShape rejects a rectangle that is not an array of exactly four
// integers. encoding/json would zero-fill a short [4]int and drop the tail
// of a long one, serving a rectangle the client never sent.
var errRectShape = errors.New("a rect must be exactly 4 integers [x0, y0, x1, y1]")

// wireRequest is one decoded decompose request: its options, and after
// finish its layout or the reason the layout is unusable.
type wireRequest struct {
	opts      decomposeRequest // every member but layout; opts.Layout stays empty
	layout    *layout.Layout
	layoutErr error

	// Scan state of the latest layout member; a duplicate features member
	// replaces features and both errors, as it replaces the value.
	process  *processJSON
	features []geom.Polygon
	shapeErr error // a rect that is not 4 integers: rejects the whole body
	featErr  error // an empty feature or bad rect: rejects this layout only
}

// layoutMembers receives the layout object's members other than features.
type layoutMembers struct {
	Process *processJSON `json:"process"`
}

// finish turns the scanned state into layout or layoutErr. Its error is a
// malformed body.
func (w *wireRequest) finish() error {
	if w.shapeErr != nil {
		return w.shapeErr
	}
	switch {
	case len(w.features) == 0:
		w.layoutErr = errors.New("layout has no features")
	case w.featErr != nil:
		w.layoutErr = w.featErr
	default:
		l := layout.New("request")
		if p := w.process; p != nil {
			l.Process = layout.Process{MinWidth: p.MinWidth, MinSpace: p.MinSpace, HalfPitch: p.HalfPitch}
		}
		l.Features = w.features
		if err := l.Validate(); err != nil {
			w.layoutErr = err
		} else {
			w.layout = l
		}
	}
	return nil
}

// decodeDecompose decodes a POST /v1/decompose body. An error means the
// body is malformed; an unusable layout is reported in layoutErr.
func decodeDecompose(body []byte) (*wireRequest, error) {
	s := newWireScanner(body)
	w := &wireRequest{}
	s.top(func() { s.request(w) })
	if s.err != nil {
		return nil, s.err
	}
	if err := w.finish(); err != nil {
		return nil, err
	}
	return w, nil
}

// decodeBatch decodes a POST /v1/decompose/batch body into its requests.
func decodeBatch(body []byte) ([]wireRequest, error) {
	s := newWireScanner(body)
	var reqs []wireRequest
	s.top(func() {
		s.members(func(key, rawKey []byte) {
			if !bytes.EqualFold(key, keyRequests) {
				s.skip()
				return
			}
			reqs = s.requests(reqs)
		})
	})
	if s.err != nil {
		return nil, s.err
	}
	for i := range reqs {
		if err := reqs[i].finish(); err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
	}
	return reqs, nil
}

// requests scans a requests array into reqs the way encoding/json fills a
// slice it already holds: element i merges into reqs[i] (or into the stale
// element left past len by an earlier, longer duplicate), and the result
// is truncated to the array's length.
func (s *wireScanner) requests(reqs []wireRequest) []wireRequest {
	switch s.peek() {
	case 'n':
		s.literal("null")
		return nil
	case '[':
	default:
		s.typeError("requests", "array")
		return reqs
	}
	s.open()
	i := 0
	for s.ws(); s.err == nil && s.peek() != ']'; i++ {
		if i >= cap(reqs) {
			reqs = slices.Grow(reqs, 1)
		}
		if i >= len(reqs) {
			reqs = reqs[:i+1]
		}
		switch s.peek() {
		case '{':
			s.request(&reqs[i])
		case 'n':
			s.literal("null")
		default:
			s.typeError("request", "object")
		}
		s.next(']')
	}
	s.close(']')
	if i == 0 {
		return []wireRequest{}
	}
	return reqs[:i]
}

// request scans one request object into w.
func (s *wireScanner) request(w *wireRequest) {
	s.members(func(key, rawKey []byte) {
		if !bytes.EqualFold(key, keyLayout) {
			s.unmarshalMember(rawKey, &w.opts)
			return
		}
		switch s.peek() {
		case '{':
			s.members(func(key, rawKey []byte) {
				if bytes.EqualFold(key, keyFeatures) {
					s.features(w)
					return
				}
				lm := layoutMembers{Process: w.process}
				s.unmarshalMember(rawKey, &lm)
				w.process = lm.Process
			})
		case 'n':
			s.literal("null") // null into a struct changes nothing
		default:
			s.typeError("layout", "object")
		}
	})
}

// features scans a layout.features value into w.
func (s *wireScanner) features(w *wireRequest) {
	w.features, w.shapeErr, w.featErr = nil, nil, nil
	switch s.peek() {
	case 'n':
		s.literal("null")
		return
	case '[':
	default:
		s.typeError("features", "array")
		return
	}
	s.open()
	p0 := len(s.polys)
	for fi := 0; s.ws() == nil && s.peek() != ']'; fi++ {
		r0 := len(s.rects)
		switch s.peek() {
		case '[':
			s.open()
			for s.ws(); s.err == nil && s.peek() != ']'; {
				r, ok := s.rect()
				switch {
				case s.err != nil:
				case !ok:
					if w.shapeErr == nil {
						w.shapeErr = fmt.Errorf("feature %d: %w", fi, errRectShape)
					}
				default:
					if w.featErr == nil {
						if err := layout.CheckRect(r); err != nil {
							w.featErr = fmt.Errorf("feature %d: %v", fi, err)
						}
					}
					s.rects = append(s.rects, r)
				}
				s.next(']')
			}
			s.close(']')
		case 'n':
			s.literal("null") // a null feature is an empty one
		default:
			s.typeError("feature", "array")
		}
		n := len(s.rects)
		if n == r0 && w.featErr == nil {
			w.featErr = fmt.Errorf("feature %d has no rectangles", fi)
		}
		s.polys = append(s.polys, geom.Polygon{Rects: s.rects[r0:n:n]})
		s.next(']')
	}
	s.close(']')
	n := len(s.polys)
	w.features = s.polys[p0:n:n]
}

// rect scans one rectangle value. ok is false, with no error, for a value
// that is valid JSON but not exactly four integers; non-integer numbers
// and non-number coordinates are errors, as they are for a [4]int field.
func (s *wireScanner) rect() (r geom.Rect, ok bool) {
	switch s.peek() {
	case '[':
	case 'n':
		s.literal("null")
		return r, false
	default:
		s.typeError("rect", "array")
		return r, false
	}
	if r, ok := s.compactRect(); ok {
		return r, true
	}
	s.open()
	var c [4]int
	n := 0
	ok = true
	for s.ws(); s.err == nil && s.peek() != ']'; n++ {
		switch b := s.peek(); {
		case n >= 4:
			s.skip() // encoding/json skips a long array's tail unchecked
			ok = false
		case b == '-' || isDigit(b):
			c[n] = s.int()
		case b == 'n':
			s.literal("null")
			ok = false
		default:
			s.typeError("rect coordinate", "integer")
		}
		s.next(']')
	}
	s.close(']')
	return geom.Rect{X0: c[0], Y0: c[1], X1: c[2], Y1: c[3]}, ok && n == 4
}

// compactRect is rect's fast path for the form clients send,
// [x0,y0,x1,y1] with no whitespace and plain integer literals. It consumes
// nothing and returns false on anything else, leaving it to the general
// path.
func (s *wireScanner) compactRect() (geom.Rect, bool) {
	b, i := s.buf, s.pos+1
	var c [4]int
	for k, sep := range [4]byte{',', ',', ',', ']'} {
		v, j, ok := compactInt(b, i)
		if !ok || j >= len(b) || b[j] != sep {
			return geom.Rect{}, false
		}
		c[k], i = v, j+1
	}
	s.pos = i
	return geom.Rect{X0: c[0], Y0: c[1], X1: c[2], Y1: c[3]}, true
}

// compactInt parses an integer literal of at most 18 digits at b[i:] and
// returns the index after it; ok is false for anything else (a fraction,
// an exponent, a leading zero, more digits), which the general path
// decides.
func compactInt(b []byte, i int) (v, j int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	for i < len(b) && isDigit(b[i]) {
		v = v*10 + int(b[i]-'0')
		i++
	}
	n := i - start
	if n == 0 || n > 18 || (n > 1 && b[start] == '0') {
		return 0, 0, false
	}
	if i < len(b) && (b[i] == '.' || b[i]|0x20 == 'e') {
		return 0, 0, false
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// wireRect is an added feature's rectangle in an incremental edit. It
// decodes with the scanner's rule: exactly four integers.
type wireRect rectJSON

func (r *wireRect) UnmarshalJSON(b []byte) error {
	s := wireScanner{buf: b}
	s.ws()
	rc, ok := s.rect()
	if s.err != nil {
		return s.err
	}
	if !ok {
		return errRectShape
	}
	*r = wireRect{rc.X0, rc.Y0, rc.X1, rc.Y1}
	return nil
}

// wireScanner is a validating single-pass JSON scanner over one body.
type wireScanner struct {
	buf   []byte
	pos   int
	depth int
	err   error // first syntax or type error; scanning stops at it

	rects []geom.Rect    // arena of every rectangle in the body
	polys []geom.Polygon // arena of every feature in the body
	obj   []byte         // scratch {"key":value} object for encoding/json
}

func newWireScanner(body []byte) *wireScanner {
	rects, feats := arenaHint(body)
	return &wireScanner{
		buf:   body,
		rects: make([]geom.Rect, 0, rects),
		polys: make([]geom.Polygon, 0, feats),
	}
}

// arenaHint sizes the arenas from two vectorized byte counts. In a layout
// every rectangle holds three commas and all but the first follow a
// fourth, and every feature adds one '[' around at least one rectangle's
// '[', so rects ≤ (commas+1)/4 and feats ≤ brackets/2. A low estimate
// (several layouts in a batch) costs an append regrowth, never a wrong
// result; the bracket and length caps (a rect takes at least 9 bytes) keep
// a body of commas from reserving more than a few times its own size.
func arenaHint(b []byte) (rects, feats int) {
	brackets := bytes.Count(b, []byte{'['})
	rects = min((bytes.Count(b, []byte{','})+1)/4+1, brackets, len(b)/9+1)
	return rects, min(rects, brackets/2+1)
}

func isDigit(b byte) bool { return b-'0' <= 9 }

func (s *wireScanner) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

func (s *wireScanner) syntaxError() {
	if s.pos >= len(s.buf) {
		s.fail(errors.New("unexpected end of JSON input"))
		return
	}
	s.fail(fmt.Errorf("invalid character %q at offset %d", s.buf[s.pos], s.pos))
}

// typeError rejects a valid value of the wrong JSON type for what. The
// value is validated first so a syntax error in it still reads as one.
func (s *wireScanner) typeError(what, want string) {
	at := s.pos
	s.skip()
	s.fail(fmt.Errorf("%s at offset %d must be %s", what, at, want))
}

// peek returns the byte at the cursor, or 0 at the end of the body or
// after an error (0 matches no case of any caller).
func (s *wireScanner) peek() byte {
	if s.err != nil || s.pos >= len(s.buf) {
		return 0
	}
	return s.buf[s.pos]
}

// ws skips whitespace and returns the sticky error.
func (s *wireScanner) ws() error {
	for s.pos < len(s.buf) {
		switch s.buf[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return s.err
		}
	}
	return s.err
}

// open enters the array or object whose opening byte is at the cursor.
func (s *wireScanner) open() {
	s.pos++
	if s.depth++; s.depth > maxNesting {
		s.fail(fmt.Errorf("exceeded max nesting depth %d", maxNesting))
	}
}

// next consumes the separator after an element: a ',' before another
// element, or nothing in front of the closing byte end.
func (s *wireScanner) next(end byte) {
	if s.pos < len(s.buf) && s.buf[s.pos] == end {
		return
	}
	s.ws()
	switch s.peek() {
	case ',':
		s.pos++
		s.ws()
		if c := s.peek(); c == end || c == 0 {
			s.syntaxError() // a trailing comma or a truncated body
		}
	case end:
	default:
		s.syntaxError()
	}
}

// close consumes the closing byte end.
func (s *wireScanner) close(end byte) {
	if s.peek() != end {
		s.syntaxError()
		return
	}
	s.pos++
	s.depth--
}

// top scans the first top-level value: an object through obj; null,
// which decodes into a struct as a no-op; anything else is an error.
// Trailing bytes are ignored.
func (s *wireScanner) top(obj func()) {
	s.ws()
	switch s.peek() {
	case '{':
		obj()
	case 'n':
		s.literal("null")
	default:
		s.typeError("request body", "a JSON object")
	}
}

// members scans the object at the cursor, calling member with each key
// (unescaped) and its raw quoted form, the cursor at the member's value;
// member must consume the value.
func (s *wireScanner) members(member func(key, rawKey []byte)) {
	s.open()
	for s.ws(); s.err == nil && s.peek() != '}'; {
		if s.peek() != '"' {
			s.syntaxError()
			return
		}
		start := s.pos
		plain := s.str()
		if s.err != nil {
			return
		}
		rawKey := s.buf[start:s.pos]
		key := rawKey[1 : len(rawKey)-1]
		if !plain {
			// Escapes or non-ASCII bytes: unquote exactly as encoding/json
			// does (invalid UTF-8 becomes U+FFFD) before folding.
			var k string
			if err := json.Unmarshal(rawKey, &k); err != nil {
				s.fail(err)
				return
			}
			key = []byte(k)
		}
		s.ws()
		if s.peek() != ':' {
			s.syntaxError()
			return
		}
		s.pos++
		s.ws()
		member(key, rawKey)
		s.next('}')
	}
	s.close('}')
}

// unmarshalMember skips the value at the cursor and decodes the one-member
// object {rawKey: value} into v with encoding/json, so key matching,
// merging and scalar rules are encoding/json's own.
func (s *wireScanner) unmarshalMember(rawKey []byte, v any) {
	start := s.pos
	s.skip()
	if s.err != nil {
		return
	}
	s.obj = append(append(append(append(append(s.obj[:0], '{'), rawKey...), ':'), s.buf[start:s.pos]...), '}')
	if err := json.Unmarshal(s.obj, v); err != nil {
		s.fail(err)
	}
}

// skip consumes one value of any type, validating its syntax.
func (s *wireScanner) skip() {
	switch c := s.peek(); {
	case c == '{':
		s.members(func(_, _ []byte) { s.skip() })
	case c == '[':
		s.open()
		for s.ws(); s.err == nil && s.peek() != ']'; {
			s.skip()
			s.next(']')
		}
		s.close(']')
	case c == '"':
		s.str()
	case c == 't':
		s.literal("true")
	case c == 'f':
		s.literal("false")
	case c == 'n':
		s.literal("null")
	case c == '-' || isDigit(c):
		s.number()
	default:
		s.syntaxError()
	}
}

// literal consumes the literal word at the cursor.
func (s *wireScanner) literal(word string) {
	for i := 0; i < len(word); i++ {
		if s.peek() != word[i] {
			s.syntaxError()
			return
		}
		s.pos++
	}
}

// str consumes the string at the cursor and reports whether it is plain:
// no escapes and ASCII only, so its raw bytes are its value.
func (s *wireScanner) str() (plain bool) {
	plain = true
	for s.pos++; s.pos < len(s.buf); {
		switch c := s.buf[s.pos]; {
		case c == '"':
			s.pos++
			return plain
		case c == '\\':
			plain = false
			s.pos++
			switch s.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.pos++
			case 'u':
				s.pos++
				for i := 0; i < 4; i++ {
					if c := s.peek(); !isDigit(c) && (c|0x20 < 'a' || c|0x20 > 'f') {
						s.syntaxError()
						return false
					}
					s.pos++
				}
			default:
				s.syntaxError()
				return false
			}
		case c < 0x20:
			s.syntaxError()
			return false
		default:
			if c >= 0x80 {
				plain = false
			}
			s.pos++
		}
	}
	s.syntaxError()
	return false
}

// digits consumes a run of decimal digits and returns how many there were.
func (s *wireScanner) digits() int {
	start := s.pos
	for s.pos < len(s.buf) && isDigit(s.buf[s.pos]) {
		s.pos++
	}
	return s.pos - start
}

// number consumes the JSON number at the cursor:
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *wireScanner) number() {
	if s.peek() == '-' {
		s.pos++
	}
	switch c := s.peek(); {
	case c == '0':
		s.pos++
	case isDigit(c):
		s.digits()
	default:
		s.syntaxError()
		return
	}
	if s.peek() == '.' {
		s.pos++
		if s.digits() == 0 {
			s.syntaxError()
			return
		}
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.pos++
		if c := s.peek(); c == '+' || c == '-' {
			s.pos++
		}
		if s.digits() == 0 {
			s.syntaxError()
		}
	}
}

// int consumes the number at the cursor, which must be an integer literal
// that fits an int — what encoding/json accepts into an int field.
func (s *wireScanner) int() int {
	start := s.pos
	s.number()
	if s.err != nil {
		return 0
	}
	lit := s.buf[start:s.pos]
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	var u uint64
	for _, c := range lit {
		if !isDigit(c) {
			s.fail(fmt.Errorf("number %s at offset %d is not an integer", s.buf[start:s.pos], start))
			return 0
		}
		u = u*10 + uint64(c-'0')
	}
	// 19 digits cannot wrap a uint64; the int range is checked on u.
	if len(lit) > 19 || (!neg && u > 1<<63-1) || u > 1<<63 {
		s.fail(fmt.Errorf("number %s at offset %d overflows int", s.buf[start:s.pos], start))
		return 0
	}
	if neg {
		return int(-u)
	}
	return int(u)
}
