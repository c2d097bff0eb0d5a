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

// TestSeedZeroIsSeedOne: -seed 0 selects the default seed, 1, as the
// facade and POST /runs do, so both flags stream the same rows.
func TestSeedZeroIsSeedOne(t *testing.T) {
	var rows [2]string
	for i, seed := range []string{"0", "1"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-m", "2", "-p", "4", "-steps", "3", "-seed", seed}, &out, &errb); code != 0 {
			t.Fatalf("mdrun -seed %s exited %d: %s", seed, code, errb.String())
		}
		// Drop the run header (TestFreshHeaderReportsBuiltIdentity reads
		// it) and the wall columns.
		for _, line := range strings.Split(out.String(), "\n")[1:] {
			f := strings.Split(line, ",")
			if len(f) > 8 {
				rows[i] += strings.Join(append(f[1:4:4], f[8:]...), ",") + "\n"
			}
		}
	}
	if rows[0] != rows[1] || rows[0] == "" {
		t.Errorf("-seed 0 rows differ from -seed 1:\n%s\nvs\n%s", rows[0], rows[1])
	}
}

// TestFreshHeaderReportsBuiltIdentity: a fresh run's header reports the
// identity Build records, defaults resolved, not the flags as typed.
func TestFreshHeaderReportsBuiltIdentity(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-seed", "0", "-dt", "0"}, "seed=1 dt=0.005 balancer=none"},
		{[]string{"-seed", "9", "-dt", "0.002"}, "seed=9 dt=0.002 balancer=none"},
	} {
		var out, errb bytes.Buffer
		args := append([]string{"-m", "2", "-p", "4", "-steps", "1"}, c.args...)
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("mdrun %v exited %d: %s", args, code, errb.String())
		}
		if header, _, _ := strings.Cut(out.String(), "\n"); !strings.HasSuffix(header, c.want) {
			t.Errorf("mdrun %v: header %q, want it to end %q", c.args, header, c.want)
		}
	}
}

// TestHeaderIsTheEngineIdentity: the run header is written once, from
// permcell.SpecOf, before the first step — so it does not depend on how
// many steps run, and a resume prints the restored balancer's canonical
// spec, not the flag's spelling or the balancer's bare name.
func TestHeaderIsTheEngineIdentity(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	var headers []string
	for _, steps := range []string{"0", "3"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-m", "2", "-p", "4", "-balancer", "permcell", "-steps", steps,
			"-checkpoint-dir", ckpt, "-checkpoint-every", "3"}, &out, &errb); code != 0 {
			t.Fatalf("mdrun -steps %s exited %d: %s", steps, code, errb.String())
		}
		header, _, _ := strings.Cut(out.String(), "\n")
		headers = append(headers, header)
	}
	if headers[0] != headers[1] || !strings.HasSuffix(headers[0], " balancer=permcell(h=0,pick=0)") {
		t.Errorf("-steps 0 header %q, -steps 3 header %q; want one header naming permcell(h=0,pick=0)", headers[0], headers[1])
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-resume", ckpt, "-steps", "0"}, &out, &errb); code != 0 {
		t.Fatalf("resumed session exited %d: %s", code, errb.String())
	}
	if header, _, _ := strings.Cut(out.String(), "\n"); header != "# mdrun resume="+ckpt+" seed=1 balancer=permcell(h=0,pick=0)" {
		t.Errorf("resume header %q does not name the canonical spec", header)
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
	// the retired -shards flag, and so is a run identity Spec.Validate
	// refuses — before the -o file is created.
	ckpt := t.TempDir()
	csv := filepath.Join(t.TempDir(), "out.csv")
	for _, args := range [][]string{
		{"-p", "5", "-steps", "2", "-o", csv},
		{"-m", "2", "-p", "4", "-rho", "0", "-o", csv},
		{"-m", "1", "-p", "4", "-steps", "1", "-o", csv},
		{"-m", "2", "-p", "4", "-dt", "-0.005", "-o", csv},
		{"-balancer", "roundrobin", "-o", csv},
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
		if _, err := os.Stat(csv); !os.IsNotExist(err) {
			t.Fatalf("mdrun %v left %s behind (%v)", args, csv, err)
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-m", "2", "-p", "4", "-steps", "1", "-max-retries", "-1"}, &out, &errb); code != 0 {
		t.Errorf("mdrun -max-retries -1 exited %d: %s", code, errb.String())
	}
}

// TestResumeReadsHeaderOnlyThenRestoreVerifies: -resume reads the
// checkpoint once, through Restore, so a file whose frame section is
// corrupt fails the resume with the section's CRC error, before anything
// reports a run identity or "resumed from".
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

	out.Reset()
	errb.Reset()
	if code := run([]string{"-resume", file, "-steps", "1"}, &out, &errb); code == 0 {
		t.Fatal("resume from a corrupt checkpoint exited 0")
	}
	if !strings.Contains(errb.String(), "CRC mismatch") || strings.Contains(errb.String(), "resumed from") {
		t.Fatalf("resume failed with %q, want the frame section's CRC error", errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("a failed resume wrote %q", out.String())
	}
}

// TestResumeBalancerFlag: on -resume an explicitly given -balancer, "none"
// included, must name the checkpoint's balancer, or mdrun exits 1 naming
// both and writes no CSV; an omitted -balancer resumes any checkpoint.
func TestResumeBalancerFlag(t *testing.T) {
	dir := t.TempDir()
	ckpt := map[string]string{}
	for _, bal := range []string{"permcell(h=0.1)", "none"} {
		ckpt[bal] = filepath.Join(dir, bal)
		var out, errb bytes.Buffer
		if code := run([]string{"-m", "2", "-p", "4", "-steps", "2", "-balancer", bal,
			"-checkpoint-dir", ckpt[bal], "-checkpoint-every", "2"}, &out, &errb); code != 0 {
			t.Fatalf("-balancer %s session exited %d: %s", bal, code, errb.String())
		}
	}
	for _, c := range []struct {
		from string
		args []string
		code int
	}{
		{"permcell(h=0.1)", nil, 0},
		{"permcell(h=0.1)", []string{"-balancer", "permcell(h=0.1)"}, 0},
		{"permcell(h=0.1)", []string{"-balancer", "sfc"}, 1},
		{"permcell(h=0.1)", []string{"-balancer", "none"}, 1},
		{"none", nil, 0},
		{"none", []string{"-balancer", "none"}, 0},
		{"none", []string{"-balancer", "permcell"}, 1},
	} {
		csv := filepath.Join(t.TempDir(), "out.csv")
		args := append([]string{"-resume", ckpt[c.from], "-steps", "2", "-o", csv}, c.args...)
		var out, errb bytes.Buffer
		code := run(args, &out, &errb)
		if code != c.code {
			t.Errorf("mdrun %v on a %s checkpoint exited %d, want %d (stderr %q)", c.args, c.from, code, c.code, errb.String())
			continue
		}
		if code == 0 {
			continue
		}
		for _, spec := range []string{c.from, c.args[1]} {
			b, _ := permcell.BalancerByName(spec)
			if msg := errb.String(); !strings.Contains(msg, "refusing to resume") || !strings.Contains(msg, `"`+permcell.BalancerName(b)+`"`) {
				t.Errorf("mdrun %v on a %s checkpoint: %q does not refuse naming %s", c.args, c.from, msg, permcell.BalancerName(b))
			}
		}
		if b, err := os.ReadFile(csv); err != nil || len(b) > 0 {
			t.Errorf("refused resume wrote %q to -o (%v)", b, err)
		}
	}
}
