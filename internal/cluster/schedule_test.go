package cluster

import (
	"errors"
	"math/rand/v2"
	"testing"

	"probequorum/internal/bitset"
	"probequorum/internal/systems"
)

// TestRegisterFailureSchedule drives the register through a long
// crash/recover/write/read schedule and checks the replication contract
// at every step: a successful read returns the most recently successfully
// written value, and operations fail exactly when the witness search finds
// a red quorum.
func TestRegisterFailureSchedule(t *testing.T) {
	sys, err := systems.NewTriang(4) // rows {0},{1,2},{3,4,5},{6,7,8,9}
	if err != nil {
		t.Fatal(err)
	}
	c := New(sys.Size())
	reg, err := NewRegister(c, sys, sys.ProbeWitness)
	if err != nil {
		t.Fatal(err)
	}

	type step struct {
		op   string // "crash", "recover", "write", "read"
		node int
		val  string
	}
	schedule := []step{
		{op: "write", val: "v1"},
		{op: "crash", node: 0},
		{op: "read"},
		{op: "write", val: "v2"},
		{op: "crash", node: 1},
		{op: "crash", node: 2}, // row 2 fully dead
		{op: "read"},           // still fine: bottom rows carry quorums
		{op: "write", val: "v3"},
		{op: "crash", node: 3},
		{op: "crash", node: 4},
		{op: "crash", node: 5}, // row 3 fully dead: red transversal via rows 2+3? every
		// quorum needs a representative of row 3 or lies fully below it;
		// row 4 remains a quorum on its own.
		{op: "read"},
		{op: "crash", node: 6}, // now row 4 is hit too: no live quorum
		{op: "read"},
		{op: "recover", node: 2},
		{op: "recover", node: 4},
		{op: "recover", node: 6},
		{op: "read"},
		{op: "write", val: "v4"},
		{op: "read"},
	}

	lastWritten := ""
	for i, s := range schedule {
		switch s.op {
		case "crash":
			c.Crash(s.node)
		case "recover":
			c.Recover(s.node)
		case "write":
			if _, err := reg.Write(s.val); err != nil {
				if !errors.Is(err, ErrNoLiveQuorum) {
					t.Fatalf("step %d: write failed unexpectedly: %v", i, err)
				}
			} else {
				lastWritten = s.val
			}
		case "read":
			val, _, err := reg.Read()
			if errors.Is(err, ErrNoLiveQuorum) {
				// Acceptable only if the live set truly contains no quorum.
				if sys.ContainsQuorum(liveSet(c)) {
					t.Fatalf("step %d: read refused although a live quorum exists", i)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: read error: %v", i, err)
			}
			if lastWritten != "" && val != lastWritten {
				t.Fatalf("step %d: read %q, want %q (staleness)", i, val, lastWritten)
			}
		}
	}
}

// liveSet snapshots the cluster's live elements.
func liveSet(c *Cluster) *bitset.Set {
	s := bitset.New(c.Size())
	for i := 0; i < c.Size(); i++ {
		if c.Node(i).Alive() {
			s.Add(i)
		}
	}
	return s
}

// TestMutexRandomizedSchedules stress-tests exclusion across random
// crash/recover storms: whenever two clients both hold the mutex the test
// fails; acquisition failures must coincide with missing live quorums.
func TestMutexRandomizedSchedules(t *testing.T) {
	sys, err := systems.NewTriang(3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(13, 17))
	c := New(sys.Size())
	m, err := NewMutex(c, sys, sys.ProbeWitness)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 300; round++ {
		// Random failure pattern.
		for e := 0; e < sys.Size(); e++ {
			if rng.IntN(3) == 0 {
				c.Crash(e)
			} else {
				c.Recover(e)
			}
		}
		q1, _, err1 := m.TryAcquire(1)
		if err1 == nil {
			if q2, _, err2 := m.TryAcquire(2); err2 == nil {
				t.Fatalf("round %d: both clients acquired (%v and %v)", round, q1, q2)
			}
			m.Release(1, q1)
			continue
		}
		if errors.Is(err1, ErrNoLiveQuorum) {
			if sys.ContainsQuorum(liveSet(c)) {
				t.Fatalf("round %d: refused although a live quorum exists", round)
			}
		}
	}
}
