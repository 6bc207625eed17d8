package server

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"
)

// testTenant builds a standalone tenant state for scheduler tests (nil
// registry: instruments are no-ops).
func testTenant(t *testing.T, cfg TenantConfig) *tenantState {
	t.Helper()
	n, err := cfg.normalize()
	if err != nil {
		t.Fatalf("normalize %+v: %v", cfg, err)
	}
	return newTenantState(n, nil)
}

func TestAdmissionSlotsAndQueue(t *testing.T) {
	a := newFairShare(2, true, 1, 1)
	ten := testTenant(t, TenantConfig{Name: AnonymousTenant})
	ctx := context.Background()

	rel1, err := a.acquire(ctx, ten)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if _, err := a.acquire(ctx, ten); err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	if a.inUseCount() != 2 {
		t.Fatalf("inUse = %d, want 2", a.inUseCount())
	}

	// Third caller queues; it must unblock when a slot frees.
	got := make(chan error, 1)
	go func() {
		_, err := a.acquire(ctx, ten)
		got <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for a.waitingCount() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if a.waitingCount() != 1 {
		t.Fatalf("waiting = %d, want 1", a.waitingCount())
	}

	// Fourth caller overflows the queue and is shed synchronously.
	if _, err := a.acquire(ctx, ten); !errors.Is(err, errSaturated) {
		t.Fatalf("overflow acquire = %v, want errSaturated", err)
	}

	rel1()
	if err := <-got; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	if a.inUseCount() != 2 || a.waitingCount() != 0 {
		t.Fatalf("after handoff: inUse=%d waiting=%d, want 2/0", a.inUseCount(), a.waitingCount())
	}
}

func TestAdmissionQueuedCancel(t *testing.T) {
	a := newFairShare(1, true, 4, 4)
	ten := testTenant(t, TenantConfig{Name: AnonymousTenant})
	if _, err := a.acquire(context.Background(), ten); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := a.acquire(ctx, ten)
		got <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for a.waitingCount() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled acquire = %v, want context.Canceled", err)
	}
	// The fixed accounting: an abandoned waiter leaves the queued count
	// the moment its acquire returns, not when a slot would have reached
	// it.
	if a.waitingCount() != 0 {
		t.Fatalf("waiting = %d after cancel, want 0", a.waitingCount())
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{-time.Second, 1},
		{100 * time.Millisecond, 1},
		{time.Second, 1},
		{1500 * time.Millisecond, 2},
		{3 * time.Second, 3},
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Fatalf("retryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestJSONFloatRoundTrip(t *testing.T) {
	cases := []struct {
		v    float64
		wire string
	}{
		{1.5, "1.5"},
		{0, "0"},
		{math.Inf(1), `"+Inf"`},
		{math.Inf(-1), `"-Inf"`},
	}
	for _, tc := range cases {
		data, err := json.Marshal(jsonFloat(tc.v))
		if err != nil {
			t.Fatalf("marshal %v: %v", tc.v, err)
		}
		if string(data) != tc.wire {
			t.Fatalf("marshal %v = %s, want %s", tc.v, data, tc.wire)
		}
		var back jsonFloat
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if float64(back) != tc.v {
			t.Fatalf("round trip %v -> %v", tc.v, back)
		}
	}

	// NaN cannot compare equal; check it survives structurally.
	data, err := json.Marshal(jsonFloat(math.NaN()))
	if err != nil {
		t.Fatalf("marshal NaN: %v", err)
	}
	if string(data) != `"NaN"` {
		t.Fatalf("marshal NaN = %s", data)
	}
	var back jsonFloat
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal NaN: %v", err)
	}
	if !math.IsNaN(float64(back)) {
		t.Fatalf("NaN round trip lost NaN-ness: %v", back)
	}
}
