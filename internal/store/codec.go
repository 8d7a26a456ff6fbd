package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
	"probequorum/internal/rw"
)

// Key schema. Every artifact of a system is keyed by its canonical spec
// string; per-parameter artifacts append their parameter in the same
// canonical float encoding the session memo uses, so one (spec, kind,
// parameter) has exactly one record whichever process computes it.

// ParamKey keys a per-parameter artifact: spec|p=<canonical float>, the
// schema of the "ppc" kind.
func ParamKey(spec string, p float64) string {
	return spec + "|p=" + strconv.FormatFloat(p, 'g', -1, 64)
}

// OptionsKey keys a per-workload artifact: spec|<options key>, the
// schema of the "strategy" kind (optsKey is rw.Options.Key()).
func OptionsKey(spec, optsKey string) string {
	return spec + "|" + optsKey
}

// PutInt persists one integer artifact (the "pc" and "resilience"
// kinds).
func (s *Store) PutInt(kind, key string, v int) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
	return s.Put(kind, key, buf[:])
}

// GetInt loads one integer artifact.
func (s *Store) GetInt(kind, key string) (int, bool) {
	payload, ok := s.Get(kind, key)
	if !ok || len(payload) != 8 {
		return 0, false
	}
	return int(int64(binary.LittleEndian.Uint64(payload))), true
}

// PutFloat persists one float artifact (the "ppc" kind).
func (s *Store) PutFloat(kind, key string, v float64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	return s.Put(kind, key, buf[:])
}

// GetFloat loads one float artifact bit-identically.
func (s *Store) GetFloat(kind, key string) (float64, bool) {
	payload, ok := s.Get(kind, key)
	if !ok || len(payload) != 8 {
		return 0, false
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(payload)), true
}

// PutFloats persists one float-vector artifact (the "availpoly" kind:
// the availability polynomial's failure counts, one per green count).
func (s *Store) PutFloats(kind, key string, vs []float64) error {
	payload := make([]byte, 8+8*len(vs))
	binary.LittleEndian.PutUint64(payload, uint64(len(vs)))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(payload[8+8*i:], math.Float64bits(v))
	}
	return s.Put(kind, key, payload)
}

// GetFloats loads one float-vector artifact bit-identically.
func (s *Store) GetFloats(kind, key string) ([]float64, bool) {
	payload, ok := s.Get(kind, key)
	if !ok || len(payload) < 8 {
		return nil, false
	}
	n := binary.LittleEndian.Uint64(payload)
	if uint64(len(payload)) != 8+8*n {
		return nil, false
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8+8*i:]))
	}
	return vs, true
}

// PutTable persists one witness table (the "table" kind): the universe
// size followed by the 2^n table bits as little-endian words.
func (s *Store) PutTable(kind, key string, t *quorum.WitnessTable) error {
	words := t.Words()
	payload := make([]byte, 8+8*len(words))
	binary.LittleEndian.PutUint64(payload, uint64(t.Size()))
	for i, w := range words {
		binary.LittleEndian.PutUint64(payload[8+8*i:], w)
	}
	return s.Put(kind, key, payload)
}

// GetTable loads one witness table bit-identically.
func (s *Store) GetTable(kind, key string) (*quorum.WitnessTable, bool) {
	payload, ok := s.Get(kind, key)
	if !ok || len(payload) < 8 || len(payload)%8 != 0 {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint64(payload))
	words := make([]uint64, len(payload)/8-1)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(payload[8+8*i:])
	}
	t, err := quorum.TableFromWords(n, words)
	if err != nil {
		return nil, false
	}
	return t, true
}

// PutStrategy persists one optimized read/write strategy (the
// "strategy" kind): universe size, both role supports as fixed-width
// word-mask rows, and both probability vectors, all bit-exact.
func (s *Store) PutStrategy(kind, key string, strat *rw.Strategy) error {
	reads, writes := strat.ReadQuorums(), strat.WriteQuorums()
	if len(reads) == 0 {
		return nil
	}
	n := reads[0].Len()
	w := quorum.WordCount(n)
	payload := make([]byte, 8*(3+(w+1)*(len(reads)+len(writes))))
	binary.LittleEndian.PutUint64(payload, uint64(n))
	binary.LittleEndian.PutUint64(payload[8:], uint64(len(reads)))
	binary.LittleEndian.PutUint64(payload[16:], uint64(len(writes)))
	off := 24
	off = encodeRole(payload, off, w, reads, strat.ReadProbs())
	encodeRole(payload, off, w, writes, strat.WriteProbs())
	return s.Put(kind, key, payload)
}

func encodeRole(payload []byte, off, w int, qs []*bitset.Set, probs []float64) int {
	for i, q := range qs {
		for j := 0; j < w; j++ {
			binary.LittleEndian.PutUint64(payload[off:], q.Word(j))
			off += 8
		}
		binary.LittleEndian.PutUint64(payload[off:], math.Float64bits(probs[i]))
		off += 8
	}
	return off
}

// GetStrategy loads one optimized strategy bit-identically.
func (s *Store) GetStrategy(kind, key string) (*rw.Strategy, bool) {
	payload, ok := s.Get(kind, key)
	if !ok || len(payload) < 24 {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint64(payload))
	nr := binary.LittleEndian.Uint64(payload[8:])
	nw := binary.LittleEndian.Uint64(payload[16:])
	if n <= 0 || n > quorum.MaxWideUniverse || nr == 0 || nw == 0 {
		return nil, false
	}
	w := quorum.WordCount(n)
	if uint64(len(payload)) != 8*(3+uint64(w+1)*(nr+nw)) {
		return nil, false
	}
	off := 24
	reads, readP, off, ok := decodeRole(payload, off, n, w, int(nr))
	if !ok {
		return nil, false
	}
	writes, writeP, _, ok := decodeRole(payload, off, n, w, int(nw))
	if !ok {
		return nil, false
	}
	strat, err := rw.NewStrategy(n, reads, readP, writes, writeP)
	if err != nil {
		return nil, false
	}
	return strat, true
}

func decodeRole(payload []byte, off, n, w, count int) (qs []*bitset.Set, probs []float64, end int, ok bool) {
	qs = make([]*bitset.Set, count)
	probs = make([]float64, count)
	words := make([]uint64, w)
	for i := 0; i < count; i++ {
		for j := 0; j < w; j++ {
			words[j] = binary.LittleEndian.Uint64(payload[off:])
			off += 8
		}
		set, err := setOfWords(n, words)
		if err != nil {
			return nil, nil, off, false
		}
		qs[i] = set
		probs[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
		off += 8
	}
	return qs, probs, off, true
}

// setOfWords rebuilds a set from its word image, rejecting bits at or
// above the universe size (quorum.SetOfWords panics on them, and a
// decoder over on-disk bytes must miss, not panic).
func setOfWords(n int, words []uint64) (*bitset.Set, error) {
	if n%quorum.MaskWords != 0 && len(words) > 0 && words[len(words)-1]>>(uint(n)%quorum.MaskWords) != 0 {
		return nil, fmt.Errorf("store: mask bits above universe size %d", n)
	}
	return quorum.SetOfWords(n, words), nil
}
