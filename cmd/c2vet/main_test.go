package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// writeModule materializes a throwaway module under t.TempDir.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmpvet\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// dirtyModule has findings from two analyzers across two packages,
// arranged so neither load order (dependencies first: z before a) nor
// suite order (ctxsleep before floatguard) matches position order — the
// output being position-sorted is therefore an actual sort, not luck.
func dirtyModule(t *testing.T) string {
	t.Helper()
	return writeModule(t, map[string]string{
		"a/a.go": `package a

import (
	"context"
	"time"

	"tmpvet/z"
)

func cmp(x, y float64) bool { return x != y }

func wait(ctx context.Context) {
	time.Sleep(time.Millisecond)
	_ = z.Equal(1, 2)
}
`,
		"z/z.go": `package z

func Equal(a, b float64) bool { return a == b }
`,
	})
}

func TestExitCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer

	// Findings exit 1.
	if code := run([]string{"-dir", dirtyModule(t), "./..."}, &stdout, &stderr); code != 1 {
		t.Errorf("dirty module: exit %d, want 1\nstderr: %s", code, stderr.String())
	}

	// A module that does not type-check exits 2, not 1: CI must tell a
	// broken run from a failing one.
	broken := writeModule(t, map[string]string{
		"b/b.go": "package b\n\nfunc f() int { return undefinedName }\n",
	})
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-dir", broken, "./..."}, &stdout, &stderr); code != 2 {
		t.Errorf("broken module: exit %d, want 2\nstderr: %s", code, stderr.String())
	}

	// A clean module exits 0.
	clean := writeModule(t, map[string]string{
		"c/c.go": "package c\n\nfunc Twice(n int) int { return 2 * n }\n",
	})
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-dir", clean, "./..."}, &stdout, &stderr); code != 0 {
		t.Errorf("clean module: exit %d, want 0\nstderr: %s", code, stderr.String())
	}
}

func TestDiagnosticsSortedByPosition(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dir", dirtyModule(t), "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d findings, want 3:\n%s", len(lines), stdout.String())
	}
	wantOrder := []string{
		"a.go:10", // floatguard, earlier line, later-running analyzer
		"a.go:13", // ctxsleep, later line, earlier-running analyzer
		"z.go:3",  // z loads first (dependency) but sorts last
	}
	for i, frag := range wantOrder {
		if !strings.Contains(lines[i], frag) {
			t.Errorf("line %d = %q, want it to contain %q", i, lines[i], frag)
		}
	}
}

// TestJSONRoundTrip is the acceptance check for -json: the bytes on
// stdout, decoded with encoding/json and re-encoded, reproduce
// themselves exactly, and the findings arrive position-sorted with
// module-relative paths.
func TestJSONRoundTrip(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dir", dirtyModule(t), "-json", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, stderr.String())
	}
	var report analysis.Report
	if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
		t.Fatalf("output is not one JSON report: %v\n%s", err, stdout.String())
	}
	var again bytes.Buffer
	if err := report.Write(&again); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(stdout.Bytes(), again.Bytes()) {
		t.Errorf("round trip changed the bytes:\n%s\n%s", stdout.Bytes(), again.Bytes())
	}
	if report.Version != analysis.ReportVersion {
		t.Errorf("version = %q, want %q", report.Version, analysis.ReportVersion)
	}
	wantFiles := []string{"a/a.go", "a/a.go", "z/z.go"}
	for i, f := range report.Findings {
		if i < len(wantFiles) && f.File != wantFiles[i] {
			t.Errorf("finding %d file = %q, want %q", i, f.File, wantFiles[i])
		}
	}
	if len(report.Findings) != 3 {
		t.Errorf("got %d findings, want 3", len(report.Findings))
	}
}

func TestSuppressionsAudit(t *testing.T) {
	// One live allow (it suppresses the Sleep), one dead allow on a line
	// with nothing to suppress, one naming a check that does not exist.
	dir := writeModule(t, map[string]string{
		"s/s.go": `package s

import (
	"context"
	"time"
)

func wait(ctx context.Context) {
	time.Sleep(time.Millisecond) //lint:allow ctxsleep fixed pacing demanded by the protocol
}

func calm() {
	_ = context.Background //lint:allow ctxsleep nothing here sleeps
	_ = time.Now //lint:allow nosuchcheck typo of a real name
}
`,
	})

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dir", dir, "-suppressions", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stale allows present)\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "s.go:13") || !strings.Contains(out, "stale //lint:allow ctxsleep: suppresses nothing") {
		t.Errorf("audit missed the dead ctxsleep allow:\n%s", out)
	}
	if !strings.Contains(out, "s.go:14") || !strings.Contains(out, "stale //lint:allow nosuchcheck: names no active analyzer") {
		t.Errorf("audit missed the unknown-analyzer allow:\n%s", out)
	}
	if strings.Contains(out, "s.go:9") {
		t.Errorf("audit flagged the live allow:\n%s", out)
	}
	if !strings.HasSuffix(out, "\n1 live //lint:allow directive(s)\n") {
		t.Errorf("audit does not end with the live count (1):\n%s", out)
	}

	// Without -suppressions the suppressed finding stays silent: exit 0.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-dir", dir, "./..."}, &stdout, &stderr); code != 0 {
		t.Errorf("suppressed module: exit %d, want 0\nstdout: %s", code, stdout.String())
	}
}
