package systems

import (
	"fmt"
	"strings"

	"probequorum/internal/quorum"
)

// This file implements the quorum.Specced capability: every construction
// reports the canonical spec string that internal/spec parses back into
// an equivalent system (round-tripping: Parse(sys.Spec()).Spec() ==
// sys.Spec()).

var (
	_ quorum.Specced = (*Maj)(nil)
	_ quorum.Specced = (*Wheel)(nil)
	_ quorum.Specced = (*CW)(nil)
	_ quorum.Specced = (*Tree)(nil)
	_ quorum.Specced = (*HQS)(nil)
	_ quorum.Specced = (*Vote)(nil)
	_ quorum.Specced = (*RecMaj)(nil)
)

// Spec implements quorum.Specced.
func (m *Maj) Spec() string { return fmt.Sprintf("maj:%d", m.n) }

// Spec implements quorum.Specced. The walls NewTriang and NewWheel build
// report the triang and wheel forms; NewCW reports the generic width
// list.
func (c *CW) Spec() string { return c.spec }

// Spec implements quorum.Specced.
func (t *Tree) Spec() string { return fmt.Sprintf("tree:%d", t.h) }

// Spec implements quorum.Specced.
func (q *HQS) Spec() string { return fmt.Sprintf("hqs:%d", q.h) }

// Spec implements quorum.Specced.
func (v *Vote) Spec() string {
	parts := make([]string, len(v.weights))
	for i, w := range v.weights {
		parts[i] = fmt.Sprintf("%d", w)
	}
	return "vote:" + strings.Join(parts, ",")
}

// Spec implements quorum.Specced.
func (r *RecMaj) Spec() string { return fmt.Sprintf("recmaj:%dx%d", r.m, r.h) }
