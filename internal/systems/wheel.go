package systems

import "fmt"

// Wheel is the wheel system of [6]: element 0 is the hub, elements
// 1..n-1 form the rim. The quorums are {hub, r} for every rim element r,
// plus the full rim {1, ..., n-1}, so it is the two-row crumbling wall
// (1, n-1)-CW, which it embeds. The embedded CW supplies membership
// (bitset and words), enumeration, the finder, the quorum sizes, the
// name and the spec. What belongs to the Wheel alone is Hub, the
// hub-first strategy (probing.go, probingwords.go, randomized.go), its
// closed forms (avail.go, expected.go) and its drawing (render.go).
type Wheel struct {
	*CW
}

// NewWheel returns the wheel system over n >= 3 elements.
func NewWheel(n int) (*Wheel, error) {
	if n < 3 {
		return nil, fmt.Errorf("systems: Wheel requires n >= 3, got %d", n)
	}
	cw, err := NewCW([]int{1, n - 1})
	if err != nil {
		return nil, err
	}
	cw.name = fmt.Sprintf("Wheel(%d)", n)
	cw.spec = fmt.Sprintf("wheel:%d", n)
	return &Wheel{cw}, nil
}

// Hub returns the hub element index.
func (w *Wheel) Hub() int { return 0 }
