package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// profile has two blocks in package a (one run by the second binary only)
// and one unrun block in package b.
const profile = `mode: set
a/x.go:1.1,2.1 3 0
a/x.go:3.1,4.1 2 0
b/y.go:1.1,2.1 4 0
mode: set
a/x.go:1.1,2.1 3 1
a/x.go:3.1,4.1 2 0
b/y.go:1.1,2.1 4 0
`

func setup(t *testing.T, budgets string) (prof, bud string) {
	t.Helper()
	dir := t.TempDir()
	prof, bud = filepath.Join(dir, "cover.out"), filepath.Join(dir, "budgets.txt")
	if err := os.WriteFile(prof, []byte(profile), 0o644); err != nil {
		t.Fatal(err)
	}
	if budgets != "" {
		if err := os.WriteFile(bud, []byte(budgets), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return prof, bud
}

func TestCheckAgainstBudgets(t *testing.T) {
	for _, tc := range []struct {
		budgets string
		want    int
	}{
		{"a 2\nb 4\n", 0},
		{"a 5\nb 9\n", 0},
		{"a 1\nb 4\n", 1}, // a's 2 unrun statements exceed 1
		{"a 2\n", 1},      // b has no budget
	} {
		prof, bud := setup(t, tc.budgets)
		if got := run([]string{prof, bud}, io.Discard, io.Discard); got != tc.want {
			t.Errorf("budgets %q: exit %d, want %d", tc.budgets, got, tc.want)
		}
	}
}

// TestWriteOnlyLowers pins that -write lowers budgets and adds new
// packages, but refuses to raise one and then leaves the file untouched.
func TestWriteOnlyLowers(t *testing.T) {
	prof, bud := setup(t, "a 5\n")
	if got := run([]string{"-write", prof, bud}, io.Discard, io.Discard); got != 0 {
		t.Fatalf("lowering write: exit %d, want 0", got)
	}
	if data, _ := os.ReadFile(bud); string(data) != "a 2\nb 4\n" {
		t.Errorf("budgets after write = %q, want %q", data, "a 2\nb 4\n")
	}

	const raised = "a 1\nb 4\n"
	prof, bud = setup(t, raised)
	if got := run([]string{"-write", prof, bud}, io.Discard, io.Discard); got != 1 {
		t.Fatalf("raising write: exit %d, want 1", got)
	}
	if data, _ := os.ReadFile(bud); string(data) != raised {
		t.Errorf("refused write changed the file to %q", data)
	}

	prof, bud = setup(t, "")
	if got := run([]string{"-write", prof, bud}, io.Discard, io.Discard); got != 0 {
		t.Fatalf("first write: exit %d, want 0", got)
	}
}
