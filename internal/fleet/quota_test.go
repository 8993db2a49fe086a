package fleet

import (
	"context"
	"errors"
	"expvar"
	"strings"
	"testing"

	"sparseroute/internal/demand"
	"sparseroute/internal/service"
)

// TestFleetTenantQuota verifies the per-tenant quota layer: each shard gets
// its own token bucket (the engine template's MutationRate), a flooding
// tenant sheds with ErrRateLimited while a sibling tenant's bucket is
// untouched, and the shed counts roll up into the fleet-level gauges an
// operator alerts on.
func TestFleetTenantQuota(t *testing.T) {
	f := testFleet(t, []string{"hot", "cold"}, func(c *Config) {
		c.Engine.MutationRate = 1.0 / 60 // one mutation a minute: the second submit sheds
		c.Engine.MutationBurst = 1
	})

	submit := func(id string) error {
		e, err := f.Engine(id)
		if err != nil {
			t.Fatal(err)
		}
		d := demand.New()
		d.Set(0, 7, 1)
		_, err = e.SubmitDemandCtx(context.Background(), d)
		return err
	}

	if err := submit("hot"); err != nil {
		t.Fatalf("first mutation on hot: %v", err)
	}
	err := submit("hot")
	var shedErr *service.ShedError
	if !errors.As(err, &shedErr) || !errors.Is(err, service.ErrRateLimited) {
		t.Fatalf("second mutation on hot: %v, want ShedError{ErrRateLimited}", err)
	}
	// The sibling tenant's bucket is its own: still a full burst.
	if err := submit("cold"); err != nil {
		t.Fatalf("first mutation on cold shed by hot's flood: %v", err)
	}

	if total := f.Metrics().shedRequests(); total != 1 {
		t.Fatalf("rollup total=%d, want 1", total)
	}

	// The fleet registry carries the rollup as a gauge.
	if got := f.Metrics().vars.Get("shed_requests").(expvar.Func)(); got != int64(1) {
		t.Fatalf("fleet shed_requests=%v, want 1", got)
	}

	// And through the Prometheus path.
	var b strings.Builder
	f.Metrics().prom().WriteTo(&b)
	if !strings.Contains(b.String(), "sparseroute_fleet_shed_requests 1") {
		t.Fatalf("prom rollup missing shed_requests:\n%s", b.String())
	}
}

// TestFleetQuotaZeroDisables confirms the default config admits freely.
func TestFleetQuotaZeroDisables(t *testing.T) {
	f := testFleet(t, []string{"a"}, nil)
	e, err := f.Engine("a")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		d := demand.New()
		d.Set(i%4, 4+i%4, 1)
		if _, err := e.SubmitDemandCtx(context.Background(), d); err != nil {
			t.Fatalf("submit %d with no quota: %v", i, err)
		}
	}
}
