package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(7, 0) != 7 || DeriveSeed(7, 3) != 10 {
		t.Errorf("DeriveSeed = %d, %d", DeriveSeed(7, 0), DeriveSeed(7, 3))
	}
}

func TestNewDefaultsWorkers(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Error("New(0) has no workers")
	}
	if New(-3).Workers() < 1 {
		t.Error("New(-3) has no workers")
	}
	if got := New(5).Workers(); got != 5 {
		t.Errorf("Workers = %d, want 5", got)
	}
}

// TestMapDeterministicAcrossWorkerCounts is the engine's core contract:
// the assembled result slice is identical for any worker count, even
// when each job burns a seed-dependent amount of CPU so completion
// order differs between schedules.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []string {
		out, err := Map(New(workers), 20, 100, func(j Job) (string, error) {
			// Seed-derived busy work so jobs finish out of order.
			r := rand.New(rand.NewSource(j.Seed))
			sum := 0
			for i := 0; i < 1000+r.Intn(5000); i++ {
				sum += r.Intn(10)
			}
			return fmt.Sprintf("job%d:seed%d:sum%d", j.Index, j.Seed, sum%7), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(1)
	for _, w := range []int{2, 4, 8} {
		if got := run(w); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d diverged:\n%v\nwant\n%v", w, got, ref)
		}
	}
}

func TestRunPropagatesLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := New(4).Run(10, 0, func(j Job) error {
		switch j.Index {
		case 3:
			return errB
		case 1:
			return errA
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Errorf("err = %v, want lowest-index error %v", err, errA)
	}
	if _, err := Map(New(2), 4, 0, func(j Job) (int, error) {
		return 0, fmt.Errorf("job %d", j.Index)
	}); err == nil {
		t.Error("Map swallowed the error")
	}
}

func TestRunStopsHandingOutJobsAfterError(t *testing.T) {
	var started atomic.Int64
	_ = New(1).Run(100, 0, func(j Job) error {
		started.Add(1)
		if j.Index == 2 {
			return errors.New("boom")
		}
		return nil
	})
	if started.Load() != 3 {
		t.Errorf("started %d jobs after error at index 2, want 3", started.Load())
	}
}

func TestRunEmptyAndSequentialOrder(t *testing.T) {
	if err := New(4).Run(0, 0, func(Job) error { t.Error("job ran"); return nil }); err != nil {
		t.Fatal(err)
	}
	var order []int
	if err := New(1).Run(5, 0, func(j Job) error { order = append(order, j.Index); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Errorf("1-worker order = %v", order)
	}
}

func TestMapNegativeIsEmpty(t *testing.T) {
	out, err := Map(New(2), -1, 0, func(Job) (int, error) { t.Error("job ran"); return 0, nil })
	if err != nil || len(out) != 0 {
		t.Errorf("Map(-1) = %v, %v; want an empty result", out, err)
	}
}

func TestWorkersCappedToJobs(t *testing.T) {
	// More workers than jobs must not deadlock or panic.
	out, err := Map(New(16), 2, 0, func(j Job) (int, error) { return j.Index * 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, []int{0, 2}) {
		t.Errorf("out = %v", out)
	}
}
