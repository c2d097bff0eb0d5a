package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestUsageErrors: every usage error exits 2 before anything reaches
// stdout — a stray argument is not skipped over, and an unknown id or
// scale is refused before the first experiment starts.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string // on stderr
	}{
		{"stray argument", []string{"fig9", "-scale", "tiny"}, `unexpected argument "fig9"`},
		{"bad flag", []string{"-bogus"}, "-bogus"},
		{"unknown id", []string{"-id", "bogus", "-scale", "tiny"}, `unknown experiment id "bogus"`},
		{"unknown scale", []string{"-id", "fig9", "-scale", "huge"}, `unknown scale "huge"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout is not empty:\n%s", stdout.String())
			}
			if !strings.Contains(stderr.String(), c.want) {
				t.Errorf("stderr %q does not name %s", stderr.String(), c.want)
			}
		})
	}
}

// failingWriter refuses every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestExperimentErrorExits1: an experiment that fails — here, one whose
// table cannot be written — exits 1 and names the experiment.
func TestExperimentErrorExits1(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-id", "fig5b", "-scale", "tiny"}, failingWriter{}, &stderr); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "fig5b: ") || !strings.Contains(stderr.String(), "disk full") {
		t.Errorf("stderr %q does not name the failed experiment and its error", stderr.String())
	}
}

// TestTheory: -id theory prints the f(3,n) bound table and exits 0.
func TestTheory(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-id", "theory"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"==== theory", "f(3,n)", "fcube(3,n)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
