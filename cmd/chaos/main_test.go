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

// TestOutOfRangeFlagsRunNothing: a negative count or duration, a
// probability outside [0, 1] (NaN included), no steps, or coordinates that
// name no run (P not a square >= 4, m below 2, no density) exit 2
// with a message naming the flag, before anything runs or prints — each of
// them used to run something else, or nothing, and could report success.
func TestOutOfRangeFlagsRunNothing(t *testing.T) {
	tiny := []string{"-p", "4", "-m", "2", "-rho", "0.3", "-steps", "12"}
	cases := []struct {
		name string
		args []string
		flag string // named by the complaint
	}{
		{"negative steps", []string{"-steps", "-5"}, "-steps"},
		{"no steps", []string{"-steps", "0"}, "-steps"},
		{"no PEs", []string{"-p", "0"}, "-p "},
		{"PEs not a square", []string{"-p", "5"}, "-p "},
		{"no movable cells", []string{"-m", "1"}, "-m "},
		{"no particles", []string{"-rho", "0"}, "-rho "},
		{"negative shards", []string{"-shards", "-1"}, "-shards"},
		{"negative kill step", []string{"-kill-at", "-3"}, "-kill-at"},
		{"negative cadence", []string{"-sabotage", "panic@9", "-checkpoint-every", "-4"}, "-checkpoint-every"},
		{"delay probability above 1", []string{"-delay-prob", "1.5"}, "-delay-prob"},
		{"delay probability NaN", []string{"-delay-prob", "NaN"}, "-delay-prob"},
		{"negative reorder probability", []string{"-reorder-prob", "-0.1"}, "-reorder-prob"},
		{"negative reorder depth", []string{"-reorder-depth", "-2"}, "-reorder-depth"},
		{"negative stall count", []string{"-stalls", "-1"}, "-stalls"},
		{"negative stall", []string{"-stall-dur", "-1s"}, "-stall-dur"},
		{"negative jitter", []string{"-max-delay", "-1ms"}, "-max-delay"},
		{"negative watchdog", []string{"-watchdog", "-1s"}, "-watchdog"},
		{"negative retry budget", []string{"-sabotage", "panic@9", "-max-retries", "-1"}, "-max-retries"},
		{"negative backoff", []string{"-sabotage", "panic@9", "-retry-backoff", "-1ms"}, "-retry-backoff"},
		{"negative worker stall", []string{"-sabotage", "worker-stall@9", "-tcp-procs", "2", "-sabotage-stall", "-1s"}, "-sabotage-stall"},
		{"negative worker count", []string{"-tcp-procs", "-1"}, "-tcp-procs"},
		{"negative heartbeat", []string{"-sabotage", "panic@9", "-tcp-procs", "2", "-heartbeat-every", "-1ms"}, "-heartbeat-every"},
		{"negative heartbeat budget", []string{"-sabotage", "panic@9", "-tcp-procs", "2", "-heartbeat-misses", "-1"}, "-heartbeat-misses"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(append(append([]string(nil), tiny...), c.args...), &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2\nstdout: %s\nstderr: %s", code, &stdout, &stderr)
			}
			if !strings.Contains(stderr.String(), c.flag) {
				t.Errorf("stderr lacks %q:\n%s", c.flag, &stderr)
			}
			if stdout.Len() > 0 {
				t.Errorf("printed before refusing:\n%s", &stdout)
			}
		})
	}
}
