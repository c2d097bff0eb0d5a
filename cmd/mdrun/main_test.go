package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"permcell"
	"permcell/internal/checkpoint"
	"permcell/internal/theory"
)

// TestResumeReportsRestoredIdentity checkpoints a run whose m, seed and
// balancer all differ from the flag defaults, resumes it with none of those
// flags, and demands that everything mdrun reports — the CSV run header,
// the JSONL f(m, n) bound and the closing summary — describes the restored
// run rather than the defaults.
func TestResumeReportsRestoredIdentity(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	var out, errb bytes.Buffer
	if code := run([]string{
		"-m", "2", "-p", "4", "-steps", "6", "-seed", "9",
		"-balancer", "sfc(h=0,moves=2)", "-wells", "3",
		"-checkpoint-dir", ckpt, "-checkpoint-every", "6",
	}, &out, &errb); code != 0 {
		t.Fatalf("first session exited %d: %s", code, errb.String())
	}

	jsonl := filepath.Join(dir, "resumed.jsonl")
	out.Reset()
	errb.Reset()
	if code := run([]string{"-resume", ckpt, "-steps", "4", "-metrics", jsonl}, &out, &errb); code != 0 {
		t.Fatalf("resumed session exited %d: %s", code, errb.String())
	}

	header, _, _ := strings.Cut(out.String(), "\n")
	for _, want := range []string{"seed=9", "balancer=sfc"} {
		if !strings.Contains(header, want) {
			t.Errorf("resume header %q lacks %q", header, want)
		}
	}
	if want := "balancer=sfc(h=0,moves=2) "; !strings.Contains(errb.String(), want) {
		t.Errorf("closing summary %q lacks %q", errb.String(), want)
	}

	f, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records := 0
	for sc := bufio.NewScanner(f); sc.Scan(); records++ {
		var rec struct {
			Step    int      `json:"step"`
			NFactor float64  `json:"n_factor"`
			Bound   *float64 `json:"bound"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		want, err := theory.F(2, rec.NFactor)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Step != 7+records {
			t.Fatalf("record %d is step %d, want %d", records, rec.Step, 7+records)
		}
		if rec.Bound == nil || *rec.Bound != want {
			t.Fatalf("step %d: bound %v, want f(2, %g) = %g", rec.Step, rec.Bound, rec.NFactor, want)
		}
	}
	if records != 4 {
		t.Fatalf("%d JSONL records, want 4", records)
	}
}

// TestBareBalancerParsesLikeBalancerByName: -balancer takes exactly the
// spec language of permcell.BalancerByName, so a bare "permcell" runs and
// records the library's defaults rather than a flag-dependent variant.
func TestBareBalancerParsesLikeBalancerByName(t *testing.T) {
	b, err := permcell.BalancerByName("permcell")
	if err != nil {
		t.Fatal(err)
	}
	want := permcell.BalancerSpec(b)
	var out, errb bytes.Buffer
	if code := run([]string{"-m", "2", "-p", "4", "-steps", "2", "-balancer", "permcell"}, &out, &errb); code != 0 {
		t.Fatalf("mdrun exited %d: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "balancer="+want+" ") {
		t.Errorf("closing summary %q does not record %s", errb.String(), want)
	}
	for _, gone := range []string{"-dlb", "-hyst"} {
		errb.Reset()
		if code := run([]string{gone, "-steps", "1"}, &out, &errb); code != 2 || !strings.Contains(errb.String(), "flag provided but not defined: "+gone) {
			t.Errorf("mdrun %s exited %d (%q), want the unknown-flag error", gone, code, errb.String())
		}
	}
}

// TestFlagErrorsExitNonZero covers the argument guards that never reach an
// engine.
func TestFlagErrorsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-checkpoint-every", "5"},
		{"-max-retries", "1"},
		{"-balancer", "roundrobin"},
		{"-wells", "-3", "-steps", "1"},
		{"-wellk", "-1", "-steps", "1"},
		{"-transport", "carrier-pigeon", "-steps", "1"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("mdrun %v exited 0", args)
		}
	}
	// A negative count or duration is a usage error, refused with exit 2
	// before any engine or worker starts; -max-retries -1 means "off". So is
	// the retired -shards flag.
	ckpt := t.TempDir()
	for _, args := range [][]string{
		{"-shards", "2", "-m", "2", "-p", "4", "-steps", "1"},
		{"-steps", "-5"},
		{"-checkpoint-every", "-1", "-checkpoint-dir", ckpt, "-steps", "1"},
		{"-max-retries", "-5", "-checkpoint-dir", ckpt, "-steps", "1"},
		{"-max-retries", "-2", "-steps", "1"},
		{"-backoff", "-1s", "-max-retries", "1", "-checkpoint-dir", ckpt, "-steps", "1"},
		{"-ranks", "-1", "-steps", "1"},
		{"-ranks", "-1", "-transport", "tcp", "-steps", "1"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() > 0 {
			t.Errorf("mdrun %v exited %d with %d bytes of CSV, want 2 and none (stderr %q)", args, code, out.Len(), errb.String())
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-m", "2", "-p", "4", "-steps", "1", "-max-retries", "-1"}, &out, &errb); code != 0 {
		t.Errorf("mdrun -max-retries -1 exited %d: %s", code, errb.String())
	}
}

// TestResumeReadsHeaderOnlyThenRestoreVerifies: -resume takes the run
// identity from the checkpoint's header alone (checkpoint.LoadMeta), so a
// file whose frame section is corrupt still yields its header — and the
// resume then fails where the state is actually read, in Restore, with the
// section's CRC error rather than a misreported identity.
func TestResumeReadsHeaderOnlyThenRestoreVerifies(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	var out, errb bytes.Buffer
	if code := run([]string{
		"-m", "2", "-p", "4", "-steps", "6", "-seed", "9",
		"-checkpoint-dir", ckpt, "-checkpoint-every", "6",
	}, &out, &errb); code != 0 {
		t.Fatalf("first session exited %d: %s", code, errb.String())
	}
	file := filepath.Join(ckpt, checkpoint.LatestName)
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01 // inside the last frame's payload
	if err := os.WriteFile(file, raw, 0o666); err != nil {
		t.Fatal(err)
	}

	meta, err := checkpoint.LoadMeta(file)
	if err != nil || meta.M != 2 || meta.Seed != 9 || meta.Step != 6 {
		t.Fatalf("LoadMeta of a file with a corrupt frame = %+v, %v", meta, err)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-resume", file, "-steps", "1"}, &out, &errb); code == 0 {
		t.Fatal("resume from a corrupt checkpoint exited 0")
	}
	if !strings.Contains(errb.String(), "CRC mismatch") || strings.Contains(errb.String(), "resumed from") {
		t.Fatalf("resume failed with %q, want the frame section's CRC error", errb.String())
	}
}
