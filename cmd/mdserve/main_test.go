package main

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestNegativeFlagsAreUsageErrors: every numeric flag reads 0 as "use the
// default", and a negative value used to be taken the same way (or, for
// -drain, as no drain at all). Each must now exit 2, naming the flag,
// before any service state is created.
func TestNegativeFlagsAreUsageErrors(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"workers", "-1"},
		{"queue", "-1"},
		{"max-particles", "-1"},
		{"retention", "-1s"},
		{"drain", "-1s"},
	} {
		t.Run(c.flag, func(t *testing.T) {
			var out, errb bytes.Buffer
			code := run([]string{"-data", t.TempDir(), "-addr", "127.0.0.1:0", "-" + c.flag, c.value}, &out, &errb)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr %q)", code, errb.String())
			}
			if want := "-" + c.flag + " must not be negative"; !strings.Contains(errb.String(), want) {
				t.Errorf("stderr %q lacks %q", errb.String(), want)
			}
		})
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"-workers", "many"}, {"stray"}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%q: exit %d, want 2 (stderr %q)", args, code, errb.String())
		}
	}
}

// TestListenFailureExits1 asks for an address that is already taken.
func TestListenFailureExits1(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var out, errb bytes.Buffer
	if code := run([]string{"-data", t.TempDir(), "-addr", ln.Addr().String()}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("claimed to listen: %q", out.String())
	}
}

// TestServesUntilSignal starts the service on an ephemeral loopback port,
// checks it answers, then sends the process SIGTERM: run must drain and
// return 0. The signal is sent only after the listening line, which run
// prints after it has taken over SIGTERM.
func TestServesUntilSignal(t *testing.T) {
	pr, pw := io.Pipe()
	var errb bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-data", t.TempDir(), "-addr", "127.0.0.1:0", "-workers", "1", "-drain", "10s"}, pw, &errb)
		pw.Close()
	}()
	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		t.Fatalf("no listening line (exit %d): %v", <-exit, err)
	}
	const prefix = "mdserve: listening on "
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("first stdout line %q lacks %q", line, prefix)
	}
	addr, _, _ := strings.Cut(strings.TrimPrefix(line, prefix), " ")
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz: %s", resp.Status)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("exit %d after SIGTERM, want 0", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no exit 30s after SIGTERM")
	}
	if !strings.Contains(errb.String(), "draining") {
		t.Errorf("stderr %q does not report the drain", errb.String())
	}
}
