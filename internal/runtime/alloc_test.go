//go:build !race

package runtime_test

import (
	"context"
	"testing"
)

// TestAllocBudgetProxyRoundTrip pins the dialed-client hold path of a
// raw member: nothing is armed or allocated per hold, the lease is the
// sweeper's business. Skipped under -race (instrumentation allocates).
func TestAllocBudgetProxyRoundTrip(t *testing.T) {
	p, _ := proxyCluster(t, 0) // the default lease
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		fence, _, err := p.Acquire(ctx, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Release("", fence); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("proxy acquire+release: %.2f allocs/op", allocs)
	if allocs != 0 {
		t.Fatalf("proxy round trip allocates %.2f/op, want 0", allocs)
	}
}
