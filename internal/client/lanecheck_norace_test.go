//go:build !race

package client

import (
	"strings"
	"testing"
	"time"
)

// TestLaneCheckerExploresEveryInterleaving runs the checker at its
// default bound: three callers on two keys of one domain, one cycle
// each, a cohort budget of 2 (runs of up to three fences), one cancel,
// one connection loss and one lease reclaimed; and four callers on one
// key. Every reachable state keeps the invariants:
//   - at most one caller holds the domain under a live lease;
//   - no fence is handed out twice, nor one the member did not reserve;
//   - every hold's end reports each of its fences that went to a
//     caller as used (a Release ends at most one);
//   - no hold ends while a caller still holds one of its fences;
//   - a token visit brings the connection at most 1 + budget grants;
//
// and in every state where nothing is left to happen:
//   - no caller is left waiting, and the member holds nothing;
//   - every grant answered was released or reported;
//   - no more promise lacks the acquire that follows it;
//   - no pipelined grant is left unclaimed, unless it landed after
//     everyone it was for had gone, and no promise was still open,
//     when it is the sweep's;
//   - the lane is idle.
func TestLaneCheckerExploresEveryInterleaving(t *testing.T) {
	for _, b := range defaultBound {
		res := check(b, false)
		if res.Err != nil {
			res = check(b, true)
			t.Fatalf("%v, after:\n%s", res.Err, strings.Join(replay(b, res.Trail), "\n"))
		}
		t.Logf("%d callers: %d states, %d transitions, depth %d, in %v", len(b.keys), res.States, res.Transitions, res.Depth, res.Wall.Round(time.Millisecond))
	}
}
