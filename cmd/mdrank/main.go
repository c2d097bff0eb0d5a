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
	"net"
	"os"

	"permcell/internal/distrib"
)

func main() {
	connect := flag.String("connect", "", "coordinator address to dial (host:port)")
	flag.Parse()
	if *connect == "" {
		fmt.Fprintln(os.Stderr, "mdrank: -connect is required (mdrank is spawned by a coordinator, e.g. mdrun -transport=tcp)")
		os.Exit(2)
	}
	conn, err := net.Dial("tcp", *connect)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdrank: dial %s: %v\n", *connect, err)
		os.Exit(1)
	}
	if err := distrib.RunWorker(conn); err != nil {
		fmt.Fprintf(os.Stderr, "mdrank: %v\n", err)
		os.Exit(1)
	}
}
