package main

import (
	"bytes"
	"net"
	"strings"
	"testing"
)

func TestMissingConnectIsUsageError(t *testing.T) {
	var errb bytes.Buffer
	if code := run(nil, &errb); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr %q)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "-connect is required") {
		t.Errorf("stderr %q does not name the missing flag", errb.String())
	}
	errb.Reset()
	if code := run([]string{"-no-such-flag"}, &errb); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}

// TestUnreachableCoordinatorExits1 dials a loopback port that was just
// released, so nothing listens there.
func TestUnreachableCoordinatorExits1(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var errb bytes.Buffer
	if code := run([]string{"-connect", addr}, &errb); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "dial "+addr) {
		t.Errorf("stderr %q does not name the address", errb.String())
	}
}
