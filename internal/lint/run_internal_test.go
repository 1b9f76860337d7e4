package lint

import (
	"go/token"
	"reflect"
	"testing"
)

func pos(file string, line, col int) token.Position {
	return token.Position{Filename: file, Line: line, Column: col}
}

// TestSortAndDedupe pins the output contract: findings come out in
// file/line/column/analyzer/message order with exact duplicates (same
// violation surfaced through multiple load paths) collapsed.
func TestSortAndDedupe(t *testing.T) {
	in := []Finding{
		{Analyzer: "norealtime", Position: pos("b.go", 3, 1), Message: "m1"},
		{Analyzer: "detflow", Position: pos("a.go", 9, 2), Message: "m2"},
		{Analyzer: "detflow", Position: pos("a.go", 9, 2), Message: "m2"}, // dup
		{Analyzer: "noglobalrand", Position: pos("a.go", 9, 2), Message: "m3"},
		{Analyzer: "detflow", Position: pos("a.go", 2, 7), Message: "m4"},
		{Analyzer: "detflow", Position: pos("a.go", 9, 2), Message: "m5"}, // same pos+analyzer, new msg
	}
	sortFindings(in)
	got := dedupe(in)
	want := []Finding{
		{Analyzer: "detflow", Position: pos("a.go", 2, 7), Message: "m4"},
		{Analyzer: "detflow", Position: pos("a.go", 9, 2), Message: "m2"},
		{Analyzer: "detflow", Position: pos("a.go", 9, 2), Message: "m5"},
		{Analyzer: "noglobalrand", Position: pos("a.go", 9, 2), Message: "m3"},
		{Analyzer: "norealtime", Position: pos("b.go", 3, 1), Message: "m1"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sort+dedupe mismatch:\n got %v\nwant %v", got, want)
	}
}

func TestKnownAnalyzerNames(t *testing.T) {
	names := KnownAnalyzerNames()
	for _, n := range []string{"norealtime", "noglobalrand", "maporder", "nogoroutine",
		"detflow", "ctxflow", "hotalloc", BadIgnoreName, UnusedIgnoreName} {
		if !names[n] {
			t.Errorf("KnownAnalyzerNames missing %q", n)
		}
	}
}
