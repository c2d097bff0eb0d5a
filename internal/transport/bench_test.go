package transport

import (
	"net"
	"testing"
)

// BenchmarkPeerBurst times one neighbour round on a loopback TCP link: 24
// halo-sized data frames, sent with a flush after every frame or queued and
// flushed once, until the far end has read all of them. The gap between the
// two is what write combining saves per burst; run with -benchmem to see
// that neither allocates.
func BenchmarkPeerBurst(b *testing.B) {
	const burst = 24
	var halo any = make([]int, 225) // ~1.8 kB on the wire, a condensation halo frame; boxed once
	for _, mode := range []struct {
		name     string
		perFrame bool
	}{{"flush-each", true}, {"flush-once", false}} {
		b.Run(mode.name, func(b *testing.B) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			got := make(chan error, 1)
			go func() {
				c, err := ln.Accept()
				if err != nil {
					got <- err
					return
				}
				far := NewPeer(c)
				defer far.Close()
				for {
					for range burst {
						if _, err := far.Recv(); err != nil {
							return // the sending side closed: done
						}
					}
					got <- nil
				}
			}()
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			p := NewPeer(c)
			defer p.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				for i := range burst {
					if _, err := p.SendData(0, 1, i, halo); err != nil {
						b.Fatal(err)
					}
					if mode.perFrame {
						if err := p.Flush(); err != nil {
							b.Fatal(err)
						}
					}
				}
				if err := p.Flush(); err != nil {
					b.Fatal(err)
				}
				if err := <-got; err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
