package store

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
	"probequorum/internal/rw"
	"probequorum/internal/spec"
)

// testSystem builds a registered construction without importing the
// façade (which imports this package).
func testSystem(s string) (quorum.System, error) { return spec.Parse(s) }

func openT(t *testing.T, engine uint32) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), engine)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestScalarRoundtrips(t *testing.T) {
	s := openT(t, 1)
	if err := s.PutInt("pc", "maj:7", -3); err != nil {
		t.Fatalf("PutInt: %v", err)
	}
	if v, ok := s.GetInt("pc", "maj:7"); !ok || v != -3 {
		t.Fatalf("GetInt = %d, %v", v, ok)
	}
	want := 2.997673749923706
	if err := s.PutFloat("ppc", ParamKey("wheel:18", 0.3), want); err != nil {
		t.Fatalf("PutFloat: %v", err)
	}
	if v, ok := s.GetFloat("ppc", ParamKey("wheel:18", 0.3)); !ok || math.Float64bits(v) != math.Float64bits(want) {
		t.Fatalf("GetFloat = %v, %v", v, ok)
	}
	vs := []float64{1, 0.5, math.Pi, 0, math.Inf(1)}
	if err := s.PutFloats("availpoly", "maj:5", vs); err != nil {
		t.Fatalf("PutFloats: %v", err)
	}
	got, ok := s.GetFloats("availpoly", "maj:5")
	if !ok || len(got) != len(vs) {
		t.Fatalf("GetFloats = %v, %v", got, ok)
	}
	for i := range vs {
		if math.Float64bits(got[i]) != math.Float64bits(vs[i]) {
			t.Fatalf("GetFloats[%d] = %v, want %v", i, got[i], vs[i])
		}
	}
	// Distinct parameters are distinct records.
	if _, ok := s.GetFloat("ppc", ParamKey("wheel:18", 0.30000001)); ok {
		t.Fatal("nearby parameter must be a distinct key")
	}
}

func TestEmptyFloatsRoundtrip(t *testing.T) {
	s := openT(t, 1)
	if err := s.PutFloats("availpoly", "k", nil); err != nil {
		t.Fatalf("PutFloats: %v", err)
	}
	got, ok := s.GetFloats("availpoly", "k")
	if !ok || len(got) != 0 {
		t.Fatalf("GetFloats = %v, %v", got, ok)
	}
}

func buildTable(t *testing.T, spec string) *quorum.WitnessTable {
	t.Helper()
	sys, err := testSystem(spec)
	if err != nil {
		t.Fatalf("system %s: %v", spec, err)
	}
	table, err := quorum.BuildWitnessTable(sys)
	if err != nil {
		t.Fatalf("BuildWitnessTable: %v", err)
	}
	return table
}

func TestTableRoundtrip(t *testing.T) {
	s := openT(t, 1)
	table := buildTable(t, "maj:9")
	if err := s.PutTable("table", "maj:9", table); err != nil {
		t.Fatalf("PutTable: %v", err)
	}
	got, ok := s.GetTable("table", "maj:9")
	if !ok {
		t.Fatal("GetTable miss")
	}
	if got.Size() != table.Size() {
		t.Fatalf("Size = %d, want %d", got.Size(), table.Size())
	}
	a, b := table.Words(), got.Words()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("word %d differs: %#x vs %#x", i, a[i], b[i])
		}
	}
}

// TestTableRoundtripMapped round-trips a table larger than any exact DP
// reads (256 KiB): it must come back bit-identical and stay readable
// after Clear. (Records this size were once served through a memory
// mapping; the name is kept.)
func TestTableRoundtripMapped(t *testing.T) {
	s := openT(t, 1)
	table := buildTable(t, "maj:21") // 2^21 bits = 256 KiB
	if err := s.PutTable("table", "maj:21", table); err != nil {
		t.Fatalf("PutTable: %v", err)
	}
	got, ok := s.GetTable("table", "maj:21")
	if !ok {
		t.Fatal("GetTable miss")
	}
	if err := s.Clear(); err != nil {
		t.Fatalf("Clear: %v", err)
	}
	a, b := table.Words(), got.Words()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("word %d differs after Clear: %#x vs %#x", i, a[i], b[i])
		}
	}
}

func TestStrategyRoundtrip(t *testing.T) {
	s := openT(t, 1)
	sys, err := testSystem("maj:5")
	if err != nil {
		t.Fatalf("system: %v", err)
	}
	opts := rw.Options{Workload: rw.Workload{ReadFraction: 0.7}}
	strat, err := rw.Optimize(sys, opts)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	key := OptionsKey("maj:5", opts.Key())
	if err := s.PutStrategy("strategy", key, strat); err != nil {
		t.Fatalf("PutStrategy: %v", err)
	}
	got, ok := s.GetStrategy("strategy", key)
	if !ok {
		t.Fatal("GetStrategy miss")
	}
	checkRole := func(role string, a, b []*bitset.Set, ap, bp []float64) {
		t.Helper()
		if len(a) != len(b) || len(ap) != len(bp) {
			t.Fatalf("%s support sizes differ: %d/%d sets, %d/%d probs", role, len(a), len(b), len(ap), len(bp))
		}
		for i := range a {
			if a[i].Key() != b[i].Key() {
				t.Fatalf("%s quorum %d differs", role, i)
			}
			if math.Float64bits(ap[i]) != math.Float64bits(bp[i]) {
				t.Fatalf("%s prob %d differs: %v vs %v", role, i, ap[i], bp[i])
			}
		}
	}
	checkRole("read", strat.ReadQuorums(), got.ReadQuorums(), strat.ReadProbs(), got.ReadProbs())
	checkRole("write", strat.WriteQuorums(), got.WriteQuorums(), strat.WriteProbs(), got.WriteProbs())
}

// corrupting helpers: locate the single record file of a one-record store.
func recordPath(t *testing.T, s *Store) string {
	t.Helper()
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), recordExt) {
			return filepath.Join(s.Dir(), e.Name())
		}
	}
	t.Fatal("no record file found")
	return ""
}

func TestTruncatedRecordMisses(t *testing.T) {
	s := openT(t, 1)
	if err := s.PutFloats("availpoly", "k", []float64{1, 2, 3}); err != nil {
		t.Fatalf("PutFloats: %v", err)
	}
	path := recordPath(t, s)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	for _, n := range []int{0, headerSize - 1, len(data) - 1} {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		if _, ok := s.GetFloats("availpoly", "k"); ok {
			t.Fatalf("truncated to %d bytes must miss", n)
		}
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Corrupt == 0 {
		t.Fatal("truncation must be counted as corruption")
	}
	// Recompute-and-republish heals the record.
	if err := s.PutFloats("availpoly", "k", []float64{1, 2, 3}); err != nil {
		t.Fatalf("re-Put: %v", err)
	}
	if vs, ok := s.GetFloats("availpoly", "k"); !ok || len(vs) != 3 {
		t.Fatalf("healed record = %v, %v", vs, ok)
	}
}

func TestFlippedByteMisses(t *testing.T) {
	s := openT(t, 1)
	if err := s.PutFloat("ppc", "k", 0.25); err != nil {
		t.Fatalf("PutFloat: %v", err)
	}
	path := recordPath(t, s)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	// Flip one bit in every byte position in turn: header, key, checksum,
	// payload — all must read as a miss, never a wrong value. The only
	// bytes allowed to still hit are the alignment pad between key and
	// payload, which the checksum does not cover and the decoder ignores.
	padStart, padEnd := headerSize+len("k"), payloadOffset(len("k"))
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		v, ok := s.GetFloat("ppc", "k")
		if ok && math.Float64bits(v) != math.Float64bits(0.25) {
			t.Fatalf("flipped byte %d returned wrong value %v", i, v)
		}
		if ok && !(i >= padStart && i < padEnd) {
			t.Fatalf("flipped byte %d must miss", i)
		}
	}
}

func TestWrongEngineVersionMisses(t *testing.T) {
	dir := t.TempDir()
	old, err := Open(dir, 1)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer old.Close()
	if err := old.PutInt("pc", "k", 7); err != nil {
		t.Fatalf("PutInt: %v", err)
	}
	upgraded, err := Open(dir, 2)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer upgraded.Close()
	if _, ok := upgraded.GetInt("pc", "k"); ok {
		t.Fatal("record of engine 1 must miss under engine 2")
	}
	st, err := upgraded.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Corrupt != 0 {
		t.Fatal("a version miss is not corruption")
	}
	// The upgraded engine recomputes and republishes over it...
	if err := upgraded.PutInt("pc", "k", 9); err != nil {
		t.Fatalf("PutInt: %v", err)
	}
	if v, ok := upgraded.GetInt("pc", "k"); !ok || v != 9 {
		t.Fatalf("upgraded record = %d, %v", v, ok)
	}
	// ...and the old engine now misses in turn.
	if _, ok := old.GetInt("pc", "k"); ok {
		t.Fatal("record of engine 2 must miss under engine 1")
	}
}

// TestWrongEngineVersionMissesMapped is the large-record twin of
// TestWrongEngineVersionMisses: a 256 KiB witness table read under a
// different engine version must be a silent version miss.
func TestWrongEngineVersionMissesMapped(t *testing.T) {
	dir := t.TempDir()
	old, err := Open(dir, 1)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer old.Close()
	table := buildTable(t, "maj:21") // 2^21 bits = 256 KiB
	if err := old.PutTable("table", "maj:21", table); err != nil {
		t.Fatalf("PutTable: %v", err)
	}
	upgraded, err := Open(dir, 2)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer upgraded.Close()
	if _, ok := upgraded.GetTable("table", "maj:21"); ok {
		t.Fatal("large record of engine 1 must miss under engine 2")
	}
	st, err := upgraded.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Corrupt != 0 {
		t.Fatal("a large-record version miss is not corruption")
	}
}

// TestFlippedByteMissesMapped corrupts one payload byte of a 256 KiB
// record: the load must miss and count the damage.
func TestFlippedByteMissesMapped(t *testing.T) {
	s := openT(t, 1)
	table := buildTable(t, "maj:21")
	if err := s.PutTable("table", "maj:21", table); err != nil {
		t.Fatalf("PutTable: %v", err)
	}
	path := recordPath(t, s)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, ok := s.GetTable("table", "maj:21"); ok {
		t.Fatal("corrupted large record must miss")
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Corrupt == 0 {
		t.Fatal("large-record corruption must be counted")
	}
}

// TestMappedGetsShareOneMapping reads one 256 KiB record from many
// goroutines at once: every Get must return the table bit-identically,
// and a Clear-then-republish cycle must serve the new record while the
// tables returned before the Clear stay readable, also after Close.
func TestMappedGetsShareOneMapping(t *testing.T) {
	s := openT(t, 1)
	table := buildTable(t, "maj:21")
	if err := s.PutTable("table", "maj:21", table); err != nil {
		t.Fatalf("PutTable: %v", err)
	}
	var wg sync.WaitGroup
	got := make([]*quorum.WitnessTable, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, ok := s.GetTable("table", "maj:21")
			if !ok {
				t.Error("GetTable miss")
				return
			}
			got[i] = g
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := table.Words()
	for i, g := range got {
		words := g.Words()
		for w := range want {
			if words[w] != want[w] {
				t.Fatalf("Get %d word %d differs", i, w)
			}
		}
	}
	if err := s.Clear(); err != nil {
		t.Fatalf("Clear: %v", err)
	}
	if err := s.PutTable("table", "maj:21", table); err != nil {
		t.Fatalf("re-PutTable: %v", err)
	}
	if _, ok := s.GetTable("table", "maj:21"); !ok {
		t.Fatal("republished record must hit")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if words := got[0].Words(); words[len(words)-1] != want[len(want)-1] {
		t.Fatal("pre-Clear table must stay readable after Close")
	}
}

func TestOversizedRecordMisses(t *testing.T) {
	s := openT(t, 1)
	if err := s.PutInt("pc", "k", 7); err != nil {
		t.Fatalf("PutInt: %v", err)
	}
	path := recordPath(t, s)
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if err := f.Truncate(maxRecordBytes + 1); err != nil {
		f.Close()
		t.Skipf("cannot grow sparse file: %v", err)
	}
	f.Close()
	if _, ok := s.GetInt("pc", "k"); ok {
		t.Fatal("oversized record must miss")
	}
}

func TestTempFilesInvisible(t *testing.T) {
	s := openT(t, 1)
	// A crashed writer leaves a temp file behind; it must not shadow the
	// record, must not count in Stats, and Clear must sweep it.
	tmp := s.path("pc", "k") + tmpExt + ".99999.1"
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, ok := s.GetInt("pc", "k"); ok {
		t.Fatal("temp file must not be readable as a record")
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if len(st.Kinds) != 0 {
		t.Fatalf("temp file counted in stats: %+v", st.Kinds)
	}
	if err := s.Clear(); err != nil {
		t.Fatalf("Clear: %v", err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("Clear must sweep temp files")
	}
}

// TestConcurrentHandles drives two independent handles on one directory
// — the same-machine equivalent of two processes — through concurrent
// mixed reads and writes of the same keys under the race detector. Every
// successful read must be one of the values some writer published.
func TestConcurrentHandles(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, 1)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer a.Close()
	b, err := Open(dir, 1)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer b.Close()

	const iters = 200
	var wg sync.WaitGroup
	for _, h := range []*Store{a, b} {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(s *Store, seed int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					key := "k" + string(rune('0'+i%3))
					if seed%2 == 0 {
						if err := s.PutInt("pc", key, i%3+10); err != nil {
							t.Errorf("PutInt: %v", err)
							return
						}
					} else if v, ok := s.GetInt("pc", key); ok && v != i%3+10 {
						t.Errorf("read %d for %s, want %d", v, key, i%3+10)
						return
					}
				}
			}(h, w)
		}
	}
	wg.Wait()
	st, err := a.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Corrupt != 0 {
		t.Fatalf("concurrent handles saw %d corrupt reads; publication is not atomic", st.Corrupt)
	}
	if got := st.Kinds["pc"].Records; got != 3 {
		t.Fatalf("want 3 records, got %d", got)
	}
}

func TestClearAndStats(t *testing.T) {
	s := openT(t, 1)
	if err := s.PutInt("pc", "a", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.PutFloat("ppc", "b", 2); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Kinds["pc"].Records != 1 || st.Kinds["ppc"].Records != 1 {
		t.Fatalf("kinds = %+v", st.Kinds)
	}
	if st.Writes != 2 {
		t.Fatalf("writes = %d", st.Writes)
	}
	if err := s.Clear(); err != nil {
		t.Fatalf("Clear: %v", err)
	}
	st, err = s.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if len(st.Kinds) != 0 {
		t.Fatalf("kinds after Clear = %+v", st.Kinds)
	}
	if _, ok := s.GetInt("pc", "a"); ok {
		t.Fatal("record survived Clear")
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", 1); err == nil {
		t.Fatal("Open(\"\") must fail")
	}
}
