package train

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

var (
	errStep = errors.New("cholesky failed")
	errHook = errors.New("disk full")
)

// TestLoop drives the loop with a fake Step under an active trace. A
// checkpoint is the int Snapshot was asked for; a span is rendered
// "<name>=<unit attribute>", with a trailing "!" when it carries an error.
func TestLoop(t *testing.T) {
	cases := []struct {
		name                string
		unit                string
		start, total, every int
		hook, progress      bool
		// Zero means never for the next three; no case needs iteration 0 to
		// fail or a checkpoint of nothing.
		cancelAfter int // cancel ctx once this many iterations are complete
		failStep    int // Step(i) fails at this i
		failHook    int // the hook fails for this checkpoint

		steps []int // iterations run
		ckpts []int // checkpoints the hook received, failed one included
		spans []string
		err   string // substring of the error; "" means success
		is    error
	}{
		{
			name: "every 2 of 6 skips the last iteration", unit: "sweep", total: 6, every: 2, hook: true,
			steps: []int{0, 1, 2, 3, 4, 5}, ckpts: []int{2, 4},
			spans: []string{"fam.train.sweep=0", "fam.train.sweep=1", "fam.train.sweep=2", "fam.train.sweep=3",
				"fam.train.sweep=4", "fam.train.sweep=5", "fam.train.checkpoint=2", "fam.train.checkpoint=4"},
		},
		{
			name: "every 1 with progress", unit: "epoch", total: 3, every: 1, hook: true, progress: true,
			steps: []int{0, 1, 2}, ckpts: []int{1, 2},
			spans: []string{"fam.train.epoch=0", "fam.train.epoch=1", "fam.train.epoch=2",
				"fam.train.checkpoint=1", "fam.train.checkpoint=2"},
		},
		{
			name: "every 0 never fires", unit: "sweep", total: 3, hook: true,
			steps: []int{0, 1, 2},
			spans: []string{"fam.train.sweep=0", "fam.train.sweep=1", "fam.train.sweep=2"},
		},
		{
			name: "cadence without a hook", unit: "sweep", total: 2, every: 1,
			steps: []int{0, 1},
			spans: []string{"fam.train.sweep=0", "fam.train.sweep=1"},
		},
		{
			name: "resumed run counts from zero", unit: "epoch", start: 3, total: 6, every: 2, hook: true,
			steps: []int{3, 4, 5}, ckpts: []int{4},
			spans: []string{"fam.train.epoch=3", "fam.train.epoch=4", "fam.train.epoch=5", "fam.train.checkpoint=4"},
		},
		{
			name: "cancel checkpoints once with the completed count", unit: "sweep", total: 5, hook: true,
			cancelAfter: 2,
			steps:       []int{0, 1}, ckpts: []int{2},
			spans: []string{"fam.train.sweep=0", "fam.train.sweep=1", "fam.train.checkpoint=2"},
			err:   "pkg: training interrupted after sweep 2/5", is: context.Canceled,
		},
		{
			name: "cancel on a cadence boundary writes the periodic and the cancellation checkpoint", unit: "epoch", total: 5, every: 2, hook: true,
			cancelAfter: 2,
			steps:       []int{0, 1}, ckpts: []int{2, 2},
			spans: []string{"fam.train.epoch=0", "fam.train.epoch=1", "fam.train.checkpoint=2", "fam.train.checkpoint=2"},
			err:   "pkg: training interrupted after epoch 2/5", is: context.Canceled,
		},
		{
			name: "cancel without a hook", unit: "epoch", total: 4,
			cancelAfter: 1,
			steps:       []int{0},
			spans:       []string{"fam.train.epoch=0"},
			err:         "pkg: training interrupted after epoch 1/4", is: context.Canceled,
		},
		{
			name: "periodic hook error aborts and names the unit", unit: "epoch", total: 4, every: 1, hook: true,
			failHook: 2,
			steps:    []int{0, 1}, ckpts: []int{1, 2},
			spans: []string{"fam.train.epoch=0", "fam.train.epoch=1", "fam.train.checkpoint=1", "fam.train.checkpoint=2!"},
			err:   "pkg: checkpoint hook at epoch 2: disk full", is: errHook,
		},
		{
			name: "cancellation hook error", unit: "sweep", total: 4, hook: true,
			cancelAfter: 1, failHook: 1,
			steps: []int{0}, ckpts: []int{1},
			spans: []string{"fam.train.sweep=0", "fam.train.checkpoint=1!"},
			err:   "pkg: writing cancellation checkpoint: disk full", is: errHook,
		},
		{
			name: "failed iteration ends its span with the error", unit: "sweep", total: 4, every: 1, hook: true, progress: true,
			failStep: 1,
			steps:    []int{0, 1}, ckpts: []int{1},
			spans: []string{"fam.train.sweep=0", "fam.train.checkpoint=1", "fam.train.sweep=1!"},
			err:   "cholesky failed", is: errStep,
		},
		{
			name: "negative cadence is rejected before the first iteration", unit: "sweep", total: 3, every: -1, hook: true,
			err: "pkg: CheckpointEvery must be >= 0, got -1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tracer := trace.NewTracer(4)
			tracer.SetEnabled(true)
			tracer.SetSampleRate(1)
			ctx, root := tracer.Start(context.Background(), "test.root")
			ctx, cancel := context.WithCancel(ctx)
			defer cancel()

			var steps, ckpts []int
			var events []obs.ProgressEvent
			lossCalls := 0
			l := Loop[int]{
				Name: "fam", Prefix: "pkg", Unit: tc.unit,
				Start: tc.start, Total: tc.total, Every: tc.every,
				Snapshot: func(done int) int { return done },
				Step: func(i int) (int, func() float64, error) {
					steps = append(steps, i)
					if tc.failStep > 0 && i == tc.failStep {
						time.Sleep(time.Millisecond)
						return 0, nil, errStep
					}
					if i+1 == tc.cancelAfter {
						cancel()
					}
					return 10 * (i + 1), func() float64 { lossCalls++; return float64(-i) }, nil
				},
			}
			if tc.hook {
				l.Checkpoint = func(done int) error {
					ckpts = append(ckpts, done)
					if tc.failHook > 0 && done == tc.failHook {
						return errHook
					}
					return nil
				}
			}
			if tc.progress {
				l.Progress = func(ev obs.ProgressEvent) { events = append(events, ev) }
			}
			err := l.Run(ctx)
			root.End()

			if tc.err == "" {
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("Run error = %v, want one containing %q", err, tc.err)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("errors.Is(%v, %v) = false", err, tc.is)
			}
			if !reflect.DeepEqual(steps, tc.steps) {
				t.Fatalf("iterations run = %v, want %v", steps, tc.steps)
			}
			if !reflect.DeepEqual(ckpts, tc.ckpts) {
				t.Fatalf("checkpoints = %v, want %v", ckpts, tc.ckpts)
			}

			// Progress: one event per completed iteration; the loss closure
			// runs for nothing else.
			completed := len(steps)
			if tc.failStep > 0 {
				completed--
			}
			if !tc.progress {
				completed = 0
			}
			if lossCalls != completed || len(events) != completed {
				t.Fatalf("loss closure called %d times, %d events; want %d of each", lossCalls, len(events), completed)
			}
			for n, ev := range events {
				i := tc.start + n
				if ev.Model != "fam" || ev.Iteration != i+1 || ev.Total != tc.total || ev.Loss != float64(-i) {
					t.Fatalf("event %d = %+v", n, ev)
				}
				if !(ev.TokensPerSec > 0) || math.IsNaN(ev.TokensPerSec) {
					t.Fatalf("event %d throughput = %v, want positive or +Inf", n, ev.TokensPerSec)
				}
			}

			tj, ok := tracer.Get(root.TraceID().String())
			if !ok {
				t.Fatal("trace not retained")
			}
			var spans []string
			for _, c := range tj.Root.Children {
				if len(c.Attrs) != 1 || c.Attrs[0].Key != tc.unit {
					t.Fatalf("span %s attrs = %v, want exactly %q", c.Name, c.Attrs, tc.unit)
				}
				s := fmt.Sprintf("%s=%s", c.Name, c.Attrs[0].Value)
				if c.Error != "" {
					s += "!"
					// The failing Step sleeps, so only a span that was never
					// ended exports a zero duration.
					if c.DurUS == 0 && strings.HasSuffix(c.Name, tc.unit) {
						t.Fatalf("span %s carries error %q but was never ended", s, c.Error)
					}
				}
				spans = append(spans, s)
			}
			want := append([]string(nil), tc.spans...)
			sort.Strings(spans)
			sort.Strings(want)
			if !reflect.DeepEqual(spans, want) {
				t.Fatalf("spans = %v\nwant    %v", spans, want)
			}
			if failed := tc.failStep > 0 || tc.failHook > 0; tj.Error != failed {
				t.Fatalf("trace error flag = %v, want %v", tj.Error, failed)
			}
		})
	}
}
