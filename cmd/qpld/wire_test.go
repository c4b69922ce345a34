package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mpl"
	"mpl/internal/geom"
	"mpl/internal/layout"
)

// layoutFromJSON is the server's former decode path: encoding/json into
// layoutJSON, then a copy into a layout.Layout. It is the reference the
// wire scanner is compared with.
func layoutFromJSON(lj layoutJSON) (*layout.Layout, error) {
	if len(lj.Features) == 0 {
		return nil, fmt.Errorf("layout has no features")
	}
	l := layout.New("request")
	if p := lj.Process; p != nil {
		l.Process = layout.Process{MinWidth: p.MinWidth, MinSpace: p.MinSpace, HalfPitch: p.HalfPitch}
	}
	for fi, rects := range lj.Features {
		if len(rects) == 0 {
			return nil, fmt.Errorf("feature %d has no rectangles", fi)
		}
		var pg geom.Polygon
		for _, r := range rects {
			rc := geom.Rect{X0: r[0], Y0: r[1], X1: r[2], Y1: r[3]}
			if !rc.Valid() {
				return nil, fmt.Errorf("feature %d: invalid rect %v", fi, rc)
			}
			pg.Rects = append(pg.Rects, rc)
		}
		l.Add(pg)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}

// shapeTwin mirrors decomposeRequest's layout with every rect kept raw, so
// the reference can see what [4]int hides: rects that are not exactly four
// numbers. encoding/json fills it under the same key-matching and merge
// rules as the real request.
type shapeTwin struct {
	Layout struct {
		Features [][][]json.RawMessage `json:"features"`
	} `json:"layout"`
}

// badShape reports whether any rect of the twin is not four non-null
// elements — the arity rule the scanner adds over encoding/json.
func (tw *shapeTwin) badShape() bool {
	for _, f := range tw.Layout.Features {
		for _, r := range f {
			if len(r) != 4 {
				return true
			}
			for _, c := range r {
				if string(c) == "null" {
					return true
				}
			}
		}
	}
	return false
}

// refItem is the reference decode of one request: its options, and its
// layout or layout error.
type refItem struct {
	opts   decomposeRequest
	layout *layout.Layout
	err    error
}

func refDecodeItem(req decomposeRequest) refItem {
	l, err := layoutFromJSON(req.Layout)
	req.Layout = layoutJSON{}
	return refItem{opts: req, layout: l, err: err}
}

// batchRequest is the /v1/decompose/batch body in its encoding/json
// form: the reference decode's schema and the tests' request builder.
type batchRequest struct {
	Requests []decomposeRequest `json:"requests"`
}

// refDecode decodes body the old way. shape reports a rect the new arity
// rule rejects; the scanner must then refuse the whole body.
func refDecode(body []byte, batch bool) (items []refItem, shape bool, err error) {
	dec := func(v any) error { return json.NewDecoder(bytes.NewReader(body)).Decode(v) }
	if !batch {
		var req decomposeRequest
		if err := dec(&req); err != nil {
			return nil, false, err
		}
		var tw shapeTwin
		if err := dec(&tw); err != nil {
			panic(fmt.Sprintf("twin decode failed where the reference succeeded: %v", err))
		}
		return []refItem{refDecodeItem(req)}, tw.badShape(), nil
	}
	var req batchRequest
	if err := dec(&req); err != nil {
		return nil, false, err
	}
	var tw struct {
		Requests []shapeTwin `json:"requests"`
	}
	if err := dec(&tw); err != nil {
		panic(fmt.Sprintf("twin decode failed where the reference succeeded: %v", err))
	}
	for i := range tw.Requests {
		shape = shape || tw.Requests[i].badShape()
	}
	for _, r := range req.Requests {
		items = append(items, refDecodeItem(r))
	}
	return items, shape, nil
}

// checkAgainstReference decodes body with the scanner and the reference
// and reports the first disagreement.
func checkAgainstReference(body []byte, batch bool) error {
	want, shape, refErr := refDecode(body, batch)
	var got []wireRequest
	var err error
	if batch {
		got, err = decodeBatch(body)
	} else {
		var w *wireRequest
		if w, err = decodeDecompose(body); err == nil {
			got = []wireRequest{*w}
		}
	}
	switch {
	case refErr != nil && err == nil:
		return fmt.Errorf("reference rejects (%v), scanner accepts", refErr)
	case refErr != nil:
		return nil
	case shape && err == nil:
		return fmt.Errorf("a rect is not 4 integers, scanner accepts")
	case shape:
		return nil
	case err != nil:
		return fmt.Errorf("reference accepts, scanner rejects: %v", err)
	case len(got) != len(want):
		return fmt.Errorf("%d requests, reference %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if !reflect.DeepEqual(g.opts, w.opts) {
			return fmt.Errorf("request %d options %+v, reference %+v", i, g.opts, w.opts)
		}
		if (g.layoutErr == nil) != (w.err == nil) {
			return fmt.Errorf("request %d layout error %v, reference %v", i, g.layoutErr, w.err)
		}
		if w.err != nil {
			continue
		}
		if g.layout.Process != w.layout.Process || g.layout.Name != w.layout.Name {
			return fmt.Errorf("request %d layout header %q %+v, reference %q %+v", i, g.layout.Name, g.layout.Process, w.layout.Name, w.layout.Process)
		}
		if !reflect.DeepEqual(g.layout.Features, w.layout.Features) {
			return fmt.Errorf("request %d features %v, reference %v", i, g.layout.Features, w.layout.Features)
		}
	}
	return nil
}

// decodeSeeds are bodies on the edges of encoding/json's semantics; each
// is also tried wrapped as a one-request batch.
var decodeSeeds = []string{
	`{"k":4,"layout":{"features":[[[0,0,20,200]],[[50,0,70,200]]]}}`,
	`{"K":4,"LAYOUT":{"FEATURES":[[[0,0,20,200]]],"Process":{"MIN_WIDTH":10}},"Algorithm":"linear"}`,
	`{"k":null,"name":null,"layout":{"process":null,"features":[[[0,0,20,200]]]}}`,
	`{"layout":null}`,
	`{"layout":{"features":null}}`,
	`{"layout":{"features":[null]}}`,
	`{"layout":{"features":[[null]]}}`,
	`{"layout":{"features":[[[0,0,null,10]]]}}`,
	`{"layout":{"features":[[[0,0,20,200]]]},"name":"é😀"}`,
	"{\"layout\":{\"featureſ\":[[[0,0,20,200]]]},\"K\":5}",
	`{"k":3,"k":5,"layout":{"features":[[[0,0,1,1]]]},"layout":{"features":[[[0,0,20,200]]]}}`,
	`{"layout":{"process":{"min_width":30}},"layout":{"process":{"min_space":40},"features":[[[0,0,20,200]]]}}`,
	`{"layout":{"process":{"min_width":30},"Process":null,"features":[[[0,0,20,200]]]}}`,
	`{"layout":{"features":[[[0,0,1]]]},"layout":{"features":[[[0,0,20,200]]]}}`,
	`{"x":{"y":[1,{"z":null}],"w":"]"},"layout":{"q":[[[1]]],"features":[[[0,0,20,200]]],"r":{"features":1}}}`,
	`{"layout":{"features":[[[-0,-0,20,200]]]}}`,
	`{"layout":{"features":[[[0,0,1e2,200]]]}}`,
	`{"layout":{"features":[[[0,0,1.0,200]]]}}`,
	`{"layout":{"features":[[[0,0,020,200]]]}}`,
	`{"k":1e2,"layout":{"features":[[[0,0,20,200]]]}}`,
	`{"alpha":1e-1,"seed":-0,"layout":{"features":[[[0,0,20,200]]]}}`,
	`{"layout":{"features":[[[0,0,20,200]]]}} trailing {garbage`,
	`{"layout":{"features":[[[0,0,20,200]]]}}]`,
	`{"layout":{"features":[[[0,0,20,200]]]`,
	`{"layout":{"features":[[[0,0,20,2`,
	`{"layout":{"features":[[[0,0,20,200],]]}}`,
	`{"layout":{"features":[[[0,-5,10]]]}}`,
	`{"layout":{"features":[[[0,0,10,10,99]]]}}`,
	`{"layout":{"features":[[[0,0,20,200,"x"]]]}}`,
	`{"layout":{"features":[[[0,0,"20",200]]]}}`,
	`{"layout":{"features":[[[0,0,99999999999999999999,200]]]}}`,
	`{"layout":{"features":[[[0,0,1073741824,200]]]}}`,
	`{"layout":{"features":[[[0,0,20,200]],[[20,0,40,10],[100,100,120,120]]]}}`,
	` 	{"layout" : { "features" : [ [ [ 0 , 0 , 20 , 200 ] ] ] } }`,
	`null`,
	`[]`,
	``,
	`{"requests":[{"name":"a","layout":{"features":[[[0,0,20,200]]]}},{"name":"b","layout":{"features":[]}},null]}`,
	`{"requests":[{"k":3,"layout":{"features":[[[0,0,20,200]]]}},{"k":4}],"requests":[{"name":"x"}]}`,
	`{"requests":[{"k":3},{"k":4,"layout":{"features":[[[0,0,20,200]]]}}],"requests":[{}],"requests":[{},{}]}`,
	`{"REQUESTS":[],"other":[[[1,2,3]]]}`,
	`{"requests":null}`,
}

func TestDecodeMatchesReference(t *testing.T) {
	for _, s := range decodeSeeds {
		for _, batch := range []bool{false, true} {
			body := s
			if batch && !strings.Contains(s, `equests"`) {
				body = `{"requests":[` + s + `]}`
			}
			if err := checkAgainstReference([]byte(body), batch); err != nil {
				t.Errorf("batch=%v %s: %v", batch, body, err)
			}
		}
	}
}

// FuzzDecodeRequest differentially checks the wire scanner against the
// encoding/json reference: the same accept/reject on every body, and on
// accept identical options and features. The one allowed divergence is
// the arity rule (a rect must be exactly four integers), filtered on the
// reference side; the coordinate range rule holds on both sides because
// both end in layout.Validate.
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s), strings.Contains(s, `equests"`))
		f.Add([]byte(`{"requests":[`+s+`]}`), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, batch bool) {
		if err := checkAgainstReference(body, batch); err != nil {
			t.Fatalf("%q (batch=%v): %v", body, batch, err)
		}
	})
}

func TestWireRect(t *testing.T) {
	for in, ok := range map[string]bool{
		`[0,0,10,10]`:      true,
		` [ -1 , 2 ,3,4 ]`: true,
		`[0,-5,10]`:        false,
		`[0,0,10,10,99]`:   false,
		`[null,0,10,10]`:   false,
		`null`:             false,
		`[0,0,1.5,10]`:     false,
		`"0,0,10,10"`:      false,
	} {
		var r wireRect
		err := json.Unmarshal([]byte(in), &r)
		if (err == nil) != ok {
			t.Errorf("%s: err %v, want ok=%v", in, err, ok)
		}
	}
}

// TestDecodeArenaWindows pins the arena layout: each feature's rects are a
// full-slice window, so appending to one never overwrites the next.
func TestDecodeArenaWindows(t *testing.T) {
	w, err := decodeDecompose([]byte(`{"layout":{"features":[[[0,0,10,10],[10,0,20,10]],[[100,0,110,10]]]}}`))
	if err != nil || w.layoutErr != nil {
		t.Fatal(err, w.layoutErr)
	}
	f := w.layout.Features
	if cap(f[0].Rects) != len(f[0].Rects) || cap(f) != len(f) {
		t.Fatalf("windows not full-slice: cap %d len %d", cap(f[0].Rects), len(f[0].Rects))
	}
	_ = append(f[0].Rects, geom.Rect{X0: -1, Y0: -1, X1: 0, Y1: 0})
	if f[1].Rects[0] != (geom.Rect{X0: 100, X1: 110, Y1: 10}) {
		t.Fatalf("append to feature 0 overwrote feature 1: %v", f[1].Rects[0])
	}
}

// s38417Body is a full-chip request body, the servebench fullchip size
// class.
func s38417Body(tb testing.TB) []byte {
	l, err := mpl.GenerateBenchmarkSeeded("S38417", 1.0, 1)
	if err != nil {
		tb.Fatal(err)
	}
	features := make([][]rectJSON, len(l.Features))
	for i, f := range l.Features {
		for _, r := range f.Rects {
			features[i] = append(features[i], rectJSON{r.X0, r.Y0, r.X1, r.Y1})
		}
	}
	body, err := json.Marshal(decomposeRequest{K: 4, Engine: "auto", Workers: 2, BuildWorkers: 2,
		Layout: layoutJSON{Features: features}})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

func TestDecodeS38417MatchesReference(t *testing.T) {
	if err := checkAgainstReference(s38417Body(t), false); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDecodeRequest decodes one S38417 body into a validated
// layout: scanner is the server's path, reflect the encoding/json
// reference it replaced.
func BenchmarkDecodeRequest(b *testing.B) {
	body := s38417Body(b)
	b.Run("scanner", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			w, err := decodeDecompose(body)
			if err != nil || w.layoutErr != nil {
				b.Fatal(err, w.layoutErr)
			}
		}
	})
	b.Run("reflect", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req decomposeRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
			if _, err := layoutFromJSON(req.Layout); err != nil {
				b.Fatal(err)
			}
		}
	})
}
