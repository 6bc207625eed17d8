package dse

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/robust"
)

// TestSweepCtxReportIndexLists pins how SweepCtx reports its indices:
// Completed is sorted and keeps duplicates, Pending keeps the caller's
// order, Failed is sorted by index, and resumed indices count once per
// occurrence in the request.
func TestSweepCtxReportIndexLists(t *testing.T) {
	vals := make([]float64, 16)
	for i := range vals {
		vals[i] = float64(i)
	}
	s, err := NewSpace(Param{Name: "x", Values: vals})
	if err != nil {
		t.Fatal(err)
	}
	fail := errors.New("broken point")
	type want struct {
		completed, pending, failed []int
		resumed                    int
		canceled                   bool
	}
	cases := []struct {
		name    string
		indices []int
		resume  []int // indices saved in a checkpoint first
		cancel  bool  // the first point ≥ 10 cancels the sweep
		want    want
	}{
		{name: "nil", indices: nil,
			want: want{completed: []int{0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, failed: []int{5}}},
		{name: "ascending", indices: []int{1, 4, 5, 9},
			want: want{completed: []int{1, 4, 9}, failed: []int{5}}},
		{name: "unsorted-duplicates", indices: []int{9, 3, 5, 3, 12, 0, 9, 5, 7},
			want: want{completed: []int{0, 3, 3, 7, 9, 9, 12}, failed: []int{5, 5}}},
		{name: "resume", indices: []int{9, 1, 3, 14, 3}, resume: []int{3, 9, 15},
			want: want{completed: []int{1, 3, 3, 9, 14}, resumed: 3}},
		{name: "resume-all", indices: []int{3, 9}, resume: []int{3, 9},
			want: want{completed: []int{3, 9}, resumed: 2}},
		{name: "cancel", indices: []int{3, 1, 3, 12, 0, 9}, cancel: true,
			want: want{completed: []int{1, 3, 3}, pending: []int{12, 0, 9}, canceled: true}},
		{name: "cancel-first", indices: []int{11, 2}, cancel: true,
			want: want{pending: []int{11, 2}, canceled: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			eval := robust.EvaluatorFunc(func(ctx context.Context, p []float64) (float64, error) {
				switch {
				case tc.cancel && p[0] >= 10:
					cancel()
					return math.NaN(), ctx.Err()
				case p[0] == 5:
					return math.NaN(), fail
				}
				return p[0] * 2, nil
			})
			opts := SweepOptions{Workers: 1, Retry: robust.RetryPolicy{MaxAttempts: 1}}
			if tc.resume != nil {
				opts.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
				opts.Resume = true
				saved := make([]float64, s.Size())
				for _, i := range tc.resume {
					saved[i] = float64(i) * 2
				}
				if err := SaveCheckpoint(opts.CheckpointPath, s, saved, tc.resume); err != nil {
					t.Fatal(err)
				}
			}
			_, rep, err := SweepCtx(ctx, eval, s, tc.indices, opts)
			if tc.cancel != errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v", err)
			}
			var failed []int
			for _, f := range rep.Failed {
				failed = append(failed, f.Index)
			}
			got := want{completed: rep.Completed, pending: rep.Pending, failed: failed, resumed: rep.Resumed, canceled: rep.Canceled}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("report lists = %+v, want %+v", got, tc.want)
			}
			if n := len(tc.indices); tc.indices != nil && rep.Total != n {
				t.Fatalf("Total = %d, want %d", rep.Total, n)
			}
		})
	}
}
