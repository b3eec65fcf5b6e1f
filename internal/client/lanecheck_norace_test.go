//go:build !race

package client

import (
	"strings"
	"testing"
	"time"
)

// TestLaneCheckerExploresEveryInterleaving runs the checker at its
// default bound: three callers on two keys of one domain, one cycle
// each, runs of up to three fences, one cancel, one connection loss and
// one lease reclaimed. Every reachable state keeps the invariants:
//   - at most one caller holds the domain under a live lease;
//   - no fence is handed out twice, nor one the member did not reserve;
//   - every hold's end reports each of its fences that went to a
//     caller as used (a Release ends at most one);
//   - no hold ends while a caller still holds one of its fences;
//
// and in every state where nothing is left to happen:
//   - no caller is left waiting;
//   - the member holds nothing for the connection, and every grant it
//     made was released or reported;
//   - no more promise lacks the acquire that follows it;
//   - the lane is idle.
func TestLaneCheckerExploresEveryInterleaving(t *testing.T) {
	res := check(defaultBound, false)
	if res.Err != nil {
		res = check(defaultBound, true)
		t.Fatalf("%v, after:\n%s", res.Err, strings.Join(replay(defaultBound, res.Trail), "\n"))
	}
	t.Logf("%d states, %d transitions, depth %d, in %v", res.States, res.Transitions, res.Depth, res.Wall.Round(time.Millisecond))
}
