// mdrank is the worker process of the TCP transport: it dials the
// coordinator (mdrun -transport=tcp, or any facade caller using
// WithTransport), receives its rank block and run spec over the frame
// protocol, and hosts those ranks' PE goroutines until the run finishes.
// It is not meant to be launched by hand — the coordinator spawns one
// mdrank per worker process and tears them down with the connection.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"

	"permcell/internal/distrib"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run is mdrank behind a testable seam: it parses args, serves one
// coordinator connection and returns the process exit code — 2 for a usage
// error, 1 when the coordinator cannot be reached or the run fails.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdrank", flag.ContinueOnError)
	fs.SetOutput(stderr)
	connect := fs.String("connect", "", "coordinator address to dial (host:port)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *connect == "" {
		fmt.Fprintln(stderr, "mdrank: -connect is required (mdrank is spawned by a coordinator, e.g. mdrun -transport=tcp)")
		return 2
	}
	conn, err := net.Dial("tcp", *connect)
	if err != nil {
		fmt.Fprintf(stderr, "mdrank: dial %s: %v\n", *connect, err)
		return 1
	}
	if err := distrib.RunWorker(conn); err != nil {
		fmt.Fprintf(stderr, "mdrank: %v\n", err)
		return 1
	}
	return 0
}
