package comm

import (
	"math"
	"testing"

	"permcell/internal/topology"
)

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Error("size 0 accepted")
	}
	w, err := NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != 4 {
		t.Errorf("size = %d", w.Size())
	}
}

func TestPointToPoint(t *testing.T) {
	w, _ := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, "hello")
		} else {
			got := c.Recv(0, 5)
			if got != "hello" {
				t.Errorf("got %v", got)
			}
		}
	})
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	w, _ := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, "first")
			c.Send(1, 2, "second")
		} else {
			// Receive in reverse tag order; matching must buffer.
			if got := c.Recv(0, 2); got != "second" {
				t.Errorf("tag 2 got %v", got)
			}
			if got := c.Recv(0, 1); got != "first" {
				t.Errorf("tag 1 got %v", got)
			}
		}
	})
}

func TestFIFOPerPair(t *testing.T) {
	w, _ := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 100; i++ {
				c.Send(1, 7, i)
			}
		} else {
			for i := 0; i < 100; i++ {
				if got := c.Recv(0, 7); got != i {
					t.Fatalf("message %d got %v", i, got)
				}
			}
		}
	})
}

func TestMultipleSourcesInterleaved(t *testing.T) {
	w, _ := NewWorld(4)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			sum := 0
			for src := 1; src < 4; src++ {
				for k := 0; k < 10; k++ {
					sum += c.Recv(src, 3).(int)
				}
			}
			if sum != 3*10*5 {
				t.Errorf("sum = %d", sum)
			}
		} else {
			for k := 0; k < 10; k++ {
				c.Send(0, 3, 5)
			}
		}
	})
}

func TestAllreduce(t *testing.T) {
	w, _ := NewWorld(6)
	w.Run(func(c *Comm) {
		sum := c.AllreduceFloat64(float64(c.Rank()), Sum)
		if sum != 15 {
			t.Errorf("rank %d: sum = %v", c.Rank(), sum)
		}
		mn := c.AllreduceFloat64(float64(c.Rank()+3), math.Min)
		if mn != 3 {
			t.Errorf("min = %v", mn)
		}
		mx := c.AllreduceFloat64(float64(c.Rank()), math.Max)
		if mx != 5 {
			t.Errorf("max = %v", mx)
		}
		si := c.AllreduceInt64(int64(c.Rank()), SumI)
		if si != 15 {
			t.Errorf("int sum = %v", si)
		}
		if c.AllreduceInt64(int64(c.Rank()), func(a, b int64) int64 { return min(a, b) }) != 0 {
			t.Error("int min wrong")
		}
		if c.AllreduceInt64(int64(c.Rank()), func(a, b int64) int64 { return max(a, b) }) != 5 {
			t.Error("int max wrong")
		}
	})
}

func TestAllreduceSingleRank(t *testing.T) {
	w, _ := NewWorld(1)
	w.Run(func(c *Comm) {
		if got := c.AllreduceFloat64(7, Sum); got != 7 {
			t.Errorf("got %v", got)
		}
	})
}

func TestAllgather(t *testing.T) {
	w, _ := NewWorld(5)
	w.Run(func(c *Comm) {
		all := c.Allgather(float64(c.Rank() * c.Rank()))
		for r, v := range all {
			if v.(float64) != float64(r*r) {
				t.Errorf("rank %d: all[%d] = %v", c.Rank(), r, v)
			}
		}
	})
}

// TestGather: rank 0 gets every rank's value, the others nil, and two
// gathers in a row (fresh tags) do not mix their values up. One gather is
// P-1 messages: no broadcast leg.
func TestGather(t *testing.T) {
	w, _ := NewWorld(5)
	w.Run(func(c *Comm) {
		for round := 0; round < 2; round++ {
			all := c.Gather(10*round + c.Rank())
			if c.Rank() != 0 {
				if all != nil {
					t.Errorf("rank %d: gather returned %v", c.Rank(), all)
				}
				continue
			}
			for r, v := range all {
				if v != 10*round+r {
					t.Errorf("round %d: all[%d] = %v", round, r, v)
				}
			}
		}
	})
	if msgs, _ := w.Stats(); msgs != 2*4 {
		t.Errorf("two gathers over 5 ranks took %d messages, want 8", msgs)
	}
}

func TestCollectivesInterleavedWithP2P(t *testing.T) {
	// Collectives must not steal point-to-point messages.
	w, _ := NewWorld(3)
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			c.Send(0, 4, "p2p")
		}
		sum := c.AllreduceFloat64(1, Sum)
		if sum != 3 {
			t.Errorf("sum = %v", sum)
		}
		if c.Rank() == 0 {
			if got := c.Recv(1, 4); got != "p2p" {
				t.Errorf("p2p got %v", got)
			}
		}
	})
}

func TestTorusNeighborExchange(t *testing.T) {
	// The paper's core pattern: every rank exchanges a value with all 8
	// torus neighbors every step, for many steps.
	tor, err := topology.NewSquareTorus(16)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := NewWorld(16)
	w.Run(func(c *Comm) {
		for step := 0; step < 50; step++ {
			nb := tor.Neighbors8(c.Rank())
			for k, dst := range nb {
				c.Send(dst, step*10+k, c.Rank()*1000+step)
			}
			for k, src := range nb {
				// The neighbor at offset k sees me at the opposite offset.
				opp := 7 - k
				got := c.Recv(src, step*10+opp).(int)
				if got != src*1000+step {
					t.Fatalf("step %d: from %d got %d", step, src, got)
				}
			}
			c.AllreduceInt64(0, SumI)
		}
	})
}

func TestStatsCount(t *testing.T) {
	w, _ := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendSized(1, 1, "x", 100)
		} else {
			c.Recv(0, 1)
		}
	})
	msgs, bytes := w.Stats()
	if msgs != 1 || bytes != 100 {
		t.Errorf("stats = (%d, %d), want (1, 100)", msgs, bytes)
	}
}

func TestNegativeTagPanics(t *testing.T) {
	w, _ := NewWorld(1)
	c := w.Comm(0)
	defer func() {
		if recover() == nil {
			t.Error("negative tag did not panic")
		}
	}()
	c.Send(0, -1, nil)
}

func TestCommRankPanics(t *testing.T) {
	w, _ := NewWorld(2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range rank did not panic")
		}
	}()
	w.Comm(2)
}
