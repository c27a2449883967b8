package main

import (
	"path/filepath"
	"testing"
)

// Self time is the parent's duration minus the union of its children's
// intervals clipped to the parent: overlapping children count once, and a
// child running past the parent's end counts only inside it.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},    // 20
		{Name: "b", Parent: 0, Start: 20, End: 40},    // overlaps a: union adds 10
		{Name: "c", Parent: 0, Start: 90, End: 120},   // clipped to 10
		{Name: "a1", Parent: 1, Start: 12, End: 18},   // grandchild: not root's
		{Name: "d", Parent: -1, Start: 200, End: 210}, // another root, no children
		{Name: "e", Parent: 5, Start: 300, End: 310},  // child outside its parent
	}
	got := selfTimes(spans)
	want := []int64{100 - 40, 20 - 6, 20, 30, 6, 10, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", 7, -1)
	child := tr.do("server.handle", 7, root, func() {})
	tr.end(root)
	if tr.spans[child].Parent != root || tr.spans[child].Req != 7 {
		t.Fatalf("child span = %+v, want parent %d req 7", tr.spans[child], root)
	}
	if s := tr.spans[root]; s.End < s.Start || tr.spans[child].Start < s.Start || tr.spans[child].End > s.End {
		t.Fatalf("spans not nested: root %+v child %+v", s, tr.spans[child])
	}
	if n := len(tr.byName("server.handle")); n != 1 {
		t.Fatalf("byName found %d spans, want 1", n)
	}
	if err := tr.write(filepath.Join(t.TempDir(), "trace.jsonl")); err != nil {
		t.Fatal(err)
	}
}
