package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestNilOptionsDefaults(t *testing.T) {
	var o *Options
	if err := o.Validate(); err != nil {
		t.Fatalf("nil options should validate: %v", err)
	}
	if err := o.interrupted(3); err != nil {
		t.Fatalf("nil options should never interrupt: %v", err)
	}
	if o.Context() == nil {
		t.Fatal("Context() must never return nil")
	}
	if ctx := o.EvalCtx(nil, nil, nil); ctx.Scan || ctx.NoPlan || ctx.Plans != nil || o.Collector() != nil {
		t.Fatal("nil options: scan off, planner on, no plan cache, no collector")
	}
	if got := o.Conflict(); got != PreferPositive {
		t.Fatalf("default policy = %v", got)
	}
	if o.StageLimit(7) != 7 || o.StateLimit(10) != 10 {
		t.Fatal("nil options must yield engine defaults")
	}
}

func TestValidate(t *testing.T) {
	for _, c := range []struct {
		name string
		opt  *Options
		ok   bool
	}{
		{"zero", &Options{}, true},
		{"all positive", &Options{MaxStages: 1, MaxStates: 4}, true},
		{"MaxStages -1", &Options{MaxStages: -1}, false},
		{"MaxStates -1", &Options{MaxStates: -1}, false},
	} {
		err := c.opt.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%s: want ErrInvalidOptions, got %v", c.name, err)
		}
	}
}

func TestLimits(t *testing.T) {
	o := &Options{MaxStages: 100}
	if o.StageLimit(5) != 100 {
		t.Fatal("MaxStages must win over the engine default")
	}
	if o.StateLimit(5) != 5 {
		t.Fatal("MaxStages must not bound the state count")
	}
}

func TestInterruptedCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	o := &Options{Ctx: ctx}
	if err := o.interrupted(2); err != nil {
		t.Fatalf("live context: %v", err)
	}
	cancel()
	err := o.interrupted(2)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !strings.Contains(err.Error(), "after 2 stages") {
		t.Fatalf("message must carry the stage count: %q", err.Error())
	}
}

func TestInterruptedDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	err := (&Options{Ctx: ctx}).interrupted(41)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if !strings.Contains(err.Error(), "deadline exceeded after 41 stages") {
		t.Fatalf("message = %q", err.Error())
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatal("deadline must not also read as canceled")
	}
}
