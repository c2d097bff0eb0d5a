package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestScenarios drives every scenario through the run seam at tiny size
// (300 particles, 12 steps, goroutine-hosted tcp workers): the exit status
// and the verdict line are the command's contract with CI.
func TestScenarios(t *testing.T) {
	tiny := []string{"-p", "4", "-m", "2", "-rho", "0.3", "-steps", "12"}
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // the verdict on success
		stderr string // the complaint otherwise
	}{
		{"replay", nil, 0, "replay identical", ""},
		{"kill and recover", []string{"-kill-at", "6"}, 0, "recovery identical", ""},
		{"panic heals in-process", []string{"-sabotage", "panic@9"}, 0, "recovery identical", ""},
		{"nan heals in-process", []string{"-sabotage", "nan@9", "-sabotage-rank", "2"}, 0, "recovery identical", ""},
		{"panic heals over tcp", []string{"-sabotage", "panic@9", "-sabotage-rank", "3", "-tcp-procs", "2"}, 0, "recovery identical", ""},
		{"worker exit heals by rescale", []string{"-sabotage", "worker-exit@9", "-sabotage-rank", "3", "-tcp-procs", "2", "-recover", "rescale"}, 0, "recovery identical", ""},
		{"shot past the horizon", []string{"-sabotage", "panic@99"}, 1, "", "DID NOT FIRE"},
		{"two scenarios", []string{"-sabotage", "panic@9", "-kill-at", "6"}, 2, "", "different scenarios"},
		{"tcp without a fault", []string{"-tcp-procs", "2"}, 2, "", "needs -sabotage"},
		{"events without a replay: kill", []string{"-kill-at", "6", "-events", "f.csv"}, 2, "", "-events"},
		{"events without a replay: sabotage", []string{"-sabotage", "panic@9", "-events", "f.csv"}, 2, "", "-events"},
		{"malformed script", []string{"-sabotage", "panic"}, 2, "", "not kind@step"},
		{"worker kind in-process", []string{"-sabotage", "worker-exit@9"}, 2, "", `"worker-exit"`},
		{"rank outside the run", []string{"-sabotage", "panic@9", "-sabotage-rank", "4"}, 2, "", "rank 4"},
		{"unknown flag", []string{"-worker-kill-at", "9"}, 2, "", "flag provided but not defined"},
		{"no send-failure flag", []string{"-fail-prob", "0.01"}, 2, "", "flag provided but not defined"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(append(append([]string(nil), tiny...), c.args...), &stdout, &stderr)
			if code != c.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, c.code, &stdout, &stderr)
			}
			if !strings.Contains(stdout.String(), c.stdout) {
				t.Errorf("stdout lacks %q:\n%s", c.stdout, &stdout)
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr lacks %q:\n%s", c.stderr, &stderr)
			}
		})
	}
}
