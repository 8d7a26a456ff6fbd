package cluster

import (
	"errors"
	"math/rand/v2"
	"sync"
	"testing"

	"probequorum/internal/coloring"
	"probequorum/internal/probe"
	"probequorum/internal/systems"
)

func newTriangCluster(t *testing.T, k int) (*Cluster, *systems.CW, func(o probe.Oracle) probe.Witness) {
	t.Helper()
	sys, err := systems.NewTriang(k)
	if err != nil {
		t.Fatal(err)
	}
	return New(sys.Size()), sys, sys.ProbeWitness
}

func TestClusterBasics(t *testing.T) {
	c := New(5)
	if c.Size() != 5 {
		t.Errorf("Size = %d", c.Size())
	}
	if !c.Node(3).Alive() {
		t.Error("fresh node not alive")
	}
	c.Crash(3)
	if c.Node(3).Alive() {
		t.Error("crash not observed")
	}
	c.Recover(3)
	if !c.Node(3).Alive() {
		t.Error("recover not observed")
	}
}

func TestOracleCountsRPCs(t *testing.T) {
	c := New(4)
	c.Crash(2)
	o := c.NewOracle()
	if got := o.Probe(2); got != coloring.Red {
		t.Errorf("Probe(2) = %s, want red", got)
	}
	if got := o.Probe(0); got != coloring.Green {
		t.Errorf("Probe(0) = %s, want green", got)
	}
	o.Probe(2)
	if o.Probes() != 2 {
		t.Errorf("distinct probes = %d, want 2", o.Probes())
	}
	if c.Probes() != 3 {
		t.Errorf("total RPCs = %d, want 3", c.Probes())
	}
	if !o.Probed().Contains(2) {
		t.Error("probed set missing element")
	}
}

func TestInjectColoring(t *testing.T) {
	c := New(6)
	col := coloring.FromReds(6, []int{1, 4})
	c.InjectColoring(col)
	for i := 0; i < 6; i++ {
		if c.Node(i).Alive() == col.IsRed(i) {
			t.Errorf("node %d liveness does not match coloring", i)
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	got := c.InjectIID(1.0, rng)
	if got.RedCount() != 6 {
		t.Errorf("InjectIID(1.0) colored %d reds", got.RedCount())
	}
	if c.Node(0).Alive() {
		t.Error("node alive after p=1 injection")
	}
}

func TestRegisterReadWrite(t *testing.T) {
	c, sys, search := newTriangCluster(t, 3)
	reg, err := NewRegister(c, sys, search)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Write("v1"); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, probes, err := reg.Read()
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got != "v1" {
		t.Errorf("Read = %q, want v1", got)
	}
	if probes <= 0 || probes > sys.Size() {
		t.Errorf("probes = %d out of range", probes)
	}
}

// Writes survive failures of nodes outside the quorum: intersection
// guarantees a later read sees the latest version.
func TestRegisterFreshnessAcrossFailures(t *testing.T) {
	c, sys, search := newTriangCluster(t, 3) // rows {0},{1,2},{3,4,5}
	reg, err := NewRegister(c, sys, search)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Write("old"); err != nil {
		t.Fatal(err)
	}
	// Crash the top element; quorums through row 2 remain.
	c.Crash(0)
	if _, err := reg.Write("new"); err != nil {
		t.Fatalf("Write after crash: %v", err)
	}
	got, _, err := reg.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got != "new" {
		t.Errorf("Read = %q, want new (freshness violated)", got)
	}
}

func TestRegisterNoLiveQuorum(t *testing.T) {
	c, sys, search := newTriangCluster(t, 3)
	reg, err := NewRegister(c, sys, search)
	if err != nil {
		t.Fatal(err)
	}
	// Kill one node in every row: no live quorum remains (the red set
	// {0,1,3} is a transversal).
	for _, id := range []int{0, 1, 3} {
		c.Crash(id)
	}
	// One representative red per row is only a transversal if it hits all
	// quorums; for Triang(3) a quorum needs row 1's single element or a
	// full lower row, both of which are hit.
	if _, err := reg.Write("x"); !errors.Is(err, ErrNoLiveQuorum) {
		t.Errorf("Write err = %v, want ErrNoLiveQuorum", err)
	}
	if _, _, err := reg.Read(); !errors.Is(err, ErrNoLiveQuorum) {
		t.Errorf("Read err = %v, want ErrNoLiveQuorum", err)
	}
}

func TestRegisterSizeMismatch(t *testing.T) {
	c := New(4)
	sys, _ := systems.NewTriang(3)
	if _, err := NewRegister(c, sys, nil); err == nil {
		t.Error("NewRegister accepted a size mismatch")
	}
	if _, err := NewMutex(c, sys, nil); err == nil {
		t.Error("NewMutex accepted a size mismatch")
	}
}

func TestMutexExclusion(t *testing.T) {
	c, sys, search := newTriangCluster(t, 3)
	m, err := NewMutex(c, sys, search)
	if err != nil {
		t.Fatal(err)
	}
	q1, _, err := m.TryAcquire(1)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	// A second client must be blocked (every pair of quorums intersects).
	if _, _, err := m.TryAcquire(2); !errors.Is(err, ErrContended) {
		t.Errorf("second acquire err = %v, want ErrContended", err)
	}
	m.Release(1, q1)
	q2, _, err := m.TryAcquire(2)
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	m.Release(2, q2)
}

// Concurrent clients never hold the critical section simultaneously.
func TestMutexConcurrentSafety(t *testing.T) {
	c, sys, search := newTriangCluster(t, 4)
	m, err := NewMutex(c, sys, search)
	if err != nil {
		t.Fatal(err)
	}
	var inCS, maxInCS, acquired int64
	var csMu sync.Mutex
	var wg sync.WaitGroup
	for client := int64(1); client <= 8; client++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for attempt := 0; attempt < 200; attempt++ {
				q, _, err := m.TryAcquire(id)
				if err != nil {
					continue
				}
				csMu.Lock()
				inCS++
				if inCS > maxInCS {
					maxInCS = inCS
				}
				acquired++
				inCS--
				csMu.Unlock()
				m.Release(id, q)
			}
		}(client)
	}
	wg.Wait()
	if maxInCS > 1 {
		t.Errorf("mutual exclusion violated: %d clients in CS", maxInCS)
	}
	if acquired == 0 {
		t.Error("no client ever acquired the mutex")
	}
}

func TestMutexNoLiveQuorum(t *testing.T) {
	c, sys, search := newTriangCluster(t, 3)
	m, err := NewMutex(c, sys, search)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 2, 5} { // one per row: a transversal
		c.Crash(id)
	}
	if _, _, err := m.TryAcquire(7); !errors.Is(err, ErrNoLiveQuorum) {
		t.Errorf("TryAcquire err = %v, want ErrNoLiveQuorum", err)
	}
}

// Recovery clears votes so a crashed holder cannot wedge the system.
func TestMutexRecoveryClearsVotes(t *testing.T) {
	c, sys, search := newTriangCluster(t, 3)
	m, err := NewMutex(c, sys, search)
	if err != nil {
		t.Fatal(err)
	}
	q1, _, err := m.TryAcquire(1)
	if err != nil {
		t.Fatal(err)
	}
	// The holder crashes silently; its quorum nodes restart.
	q1.ForEach(func(e int) bool {
		c.Crash(e)
		c.Recover(e)
		return true
	})
	if _, _, err := m.TryAcquire(2); err != nil {
		t.Errorf("acquire after holder restart: %v", err)
	}
}
