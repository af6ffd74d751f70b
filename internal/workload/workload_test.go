package workload

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"recycledb/internal/plan"
)

func TestRunExecutesAllQueries(t *testing.T) {
	streams := [][]Query{
		{{Label: "a"}, {Label: "b"}},
		{{Label: "a"}, {Label: "c"}},
		{{Label: "b"}},
	}
	var count int64
	res := Run(streams, 2, func(stream int, q Query) (Outcome, error) {
		atomic.AddInt64(&count, 1)
		return Outcome{}, nil
	})
	if count != 5 {
		t.Fatalf("executed %d queries, want 5", count)
	}
	if len(res.Events) != 5 {
		t.Fatalf("events = %d", len(res.Events))
	}
	if len(res.PerLabel["a"]) != 2 || len(res.PerLabel["b"]) != 2 || len(res.PerLabel["c"]) != 1 {
		t.Fatalf("PerLabel = %v", res.PerLabel)
	}
	if res.Errs != 0 {
		t.Fatalf("errs = %d", res.Errs)
	}
}

func TestRunRespectsConcurrencyLimit(t *testing.T) {
	streams := make([][]Query, 8)
	for i := range streams {
		streams[i] = []Query{{Label: "q"}, {Label: "q"}}
	}
	var inFlight, maxSeen int64
	Run(streams, 3, func(stream int, q Query) (Outcome, error) {
		cur := atomic.AddInt64(&inFlight, 1)
		for {
			m := atomic.LoadInt64(&maxSeen)
			if cur <= m || atomic.CompareAndSwapInt64(&maxSeen, m, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt64(&inFlight, -1)
		return Outcome{}, nil
	})
	if maxSeen > 3 {
		t.Fatalf("max concurrency %d exceeded limit 3", maxSeen)
	}
	if maxSeen < 2 {
		t.Fatalf("parallelism never reached 2 (max %d)", maxSeen)
	}
}

func TestRunStreamOrderPreserved(t *testing.T) {
	streams := [][]Query{{{Label: "x1"}, {Label: "x2"}, {Label: "x3"}}}
	var order []string
	Run(streams, 4, func(stream int, q Query) (Outcome, error) {
		order = append(order, q.Label)
		return Outcome{}, nil
	})
	if order[0] != "x1" || order[1] != "x2" || order[2] != "x3" {
		t.Fatalf("stream order violated: %v", order)
	}
}

func TestRunCountsErrors(t *testing.T) {
	streams := [][]Query{{{Label: "bad"}, {Label: "good"}}}
	res := Run(streams, 1, func(stream int, q Query) (Outcome, error) {
		if q.Label == "bad" {
			return Outcome{}, errors.New("boom")
		}
		return Outcome{}, nil
	})
	if res.Errs != 1 {
		t.Fatalf("errs = %d", res.Errs)
	}
	if len(res.PerLabel["bad"]) != 0 || len(res.PerLabel["good"]) != 1 {
		t.Fatalf("PerLabel = %v", res.PerLabel)
	}
}

func TestAverages(t *testing.T) {
	streams := [][]Query{{{Label: "a"}}, {{Label: "a"}}}
	res := Run(streams, 2, func(stream int, q Query) (Outcome, error) {
		time.Sleep(time.Millisecond)
		return Outcome{}, nil
	})
	if res.AvgStreamTime() <= 0 {
		t.Fatal("AvgStreamTime not positive")
	}
	if res.AvgLabelTime("a") <= 0 {
		t.Fatal("AvgLabelTime not positive")
	}
	if res.AvgLabelTime("zzz") != 0 {
		t.Fatal("unknown label should average 0")
	}
	if res.Total <= 0 {
		t.Fatal("Total not positive")
	}
}

func TestEventTimesOrdered(t *testing.T) {
	streams := [][]Query{{{Label: "a"}, {Label: "b"}}}
	res := Run(streams, 1, func(stream int, q Query) (Outcome, error) {
		time.Sleep(time.Millisecond)
		return Outcome{}, nil
	})
	for _, e := range res.Events {
		if e.Start > e.Begin || e.Begin > e.End {
			t.Fatalf("event times out of order: %+v", e)
		}
	}
}

func TestMixPick(t *testing.T) {
	mk := func(rng *rand.Rand) *plan.Node { return plan.NewScan("t", "a") }
	const draws = 400
	for _, tc := range []struct {
		name string
		mix  Mix
		min  map[string]int // lower bound on draws per label; "" is the zero Query
	}{
		{"weights respected",
			Mix{{Label: "hot", Weight: 3, Make: mk}, {Label: "cold", Weight: 1, Make: mk}},
			map[string]int{"hot": 250, "cold": 50}},
		{"zero-weight entry never drawn",
			Mix{{Label: "hot", Weight: 1, Make: mk}, {Label: "cold", Weight: 0, Make: mk}},
			map[string]int{"hot": draws}},
		{"zero-weight mix returns the zero Query",
			Mix{{Label: "hot", Weight: 0, Make: mk}},
			map[string]int{"": draws}},
		{"empty mix returns the zero Query", nil, map[string]int{"": draws}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			got := map[string]int{}
			for i := 0; i < draws; i++ {
				q := tc.mix.Pick(rng)
				if (q.Plan == nil) != (q.Label == "") {
					t.Fatalf("half-filled query %+v", q)
				}
				got[q.Label]++
			}
			for label, n := range tc.min {
				if got[label] < n {
					t.Errorf("%q drawn %d times of %d, want >= %d (all draws: %v)", label, got[label], draws, n, got)
				}
			}
		})
	}
}
