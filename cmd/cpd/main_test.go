package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSmallRandomTensor(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-dims", "8,7,6", "-rank", "2", "-maxiters", "3", "-tol", "-1", "-threads", "2", "-seed", "4"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	s := out.String()
	for _, want := range []string{"tensor [8 7 6]", "converged: fit", "component weights"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunMultiSweepAndMethods drives the default two-pass (multi-sweep)
// CP path and the per-mode methods; the default and the per-mode hybrid
// (-method 2step) must report the same fit to the printed precision.
func TestRunMultiSweepAndMethods(t *testing.T) {
	fits := map[string]string{}
	for _, extra := range [][]string{
		nil,
		{"-method", "2step"},
		{"-method", "reorder"},
		{"-method", "1step"},
		{"-nonneg"},
	} {
		args := append([]string{"-dims", "6,5,4", "-rank", "2", "-maxiters", "2", "-tol", "-1", "-threads", "2"}, extra...)
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err != nil {
			t.Errorf("run %v: %v", extra, err)
		}
		_, fit, _ := strings.Cut(out.String(), "converged: fit ")
		fit, _, _ = strings.Cut(fit, " ")
		fits[strings.Join(extra, " ")] = fit
	}
	if fits[""] == "" || fits[""] != fits["-method 2step"] {
		t.Errorf("default fit %q vs -method 2step fit %q", fits[""], fits["-method 2step"])
	}
}

func TestRunSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.tns")
	var out, errOut bytes.Buffer
	if err := run([]string{"-dims", "5,4,3", "-rank", "2", "-maxiters", "1", "-tol", "-1", "-save", path}, &out, &errOut); err != nil {
		t.Fatalf("save run: %v", err)
	}
	out.Reset()
	if err := run([]string{"-load", path, "-rank", "2", "-maxiters", "1", "-tol", "-1"}, &out, &errOut); err != nil {
		t.Fatalf("load run: %v", err)
	}
	if !strings.Contains(out.String(), "tensor [5 4 3]") {
		t.Errorf("loaded tensor not reported:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                                   // neither -dims nor -fmri
		{"-dims", "abc"},                     // malformed dims
		{"-dims", "4,4", "-method", "bogus"}, // unknown method
		{"-load", "/nonexistent/path.tns"},
	} {
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
