// Package faultinject is the hook-based fault-injection harness for the
// resource-governance chaos sweeps (the same pattern as the WAL crash
// harness: the production path carries a nil-safe hook, tests install a
// deterministic schedule).
//
// An Injector is threaded through exec run configs down to the engine's
// //gf:pollpoint sites and worker/build entry points, where Visit is
// called with the site's Point. A nil *Injector is a no-op everywhere —
// the production path pays one nil check per amortized poll. A non-nil
// injector panics with an Injected value or sleeps at deterministic,
// seeded visit counts, exercising the panic-isolation and slow-stage
// paths without touching production code.
package faultinject

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Point identifies an instrumented site in the engine.
type Point uint8

const (
	// PointPoll is the amortized cancellation pollpoint — hit constantly
	// by every long-running pipeline.
	PointPoll Point = iota
	// PointWorkerStart is the start of one worker's pipeline run.
	PointWorkerStart
	// PointHashBuild is the hash-join build-side insert sink.
	PointHashBuild
	numPoints
)

func (p Point) String() string {
	switch p {
	case PointPoll:
		return "poll"
	case PointWorkerStart:
		return "worker-start"
	case PointHashBuild:
		return "hash-build"
	}
	return fmt.Sprintf("point(%d)", uint8(p))
}

// Injected is the panic value thrown by an injected fault. It is
// deliberately NOT an error: the engine must treat it as a foreign
// panic (recover, capture the stack, fail the query) exactly as it
// would a real bug.
type Injected struct {
	Point Point
	Visit int64
}

func (i Injected) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s visit %d", i.Point, i.Visit)
}

// Injector fires faults at deterministic visit counts. Configure the
// fields before use; they must not change while the injector is live.
type Injector struct {
	// PanicEvery > 0 panics with an Injected value on every n-th visit
	// to an enabled point (counted per point).
	PanicEvery int64
	// SleepEvery > 0 sleeps Sleep on every n-th visit to an enabled
	// point — the slow-stage fault.
	SleepEvery int64
	// Sleep is the injected stall duration (default 1ms when
	// SleepEvery is set).
	Sleep time.Duration
	// Points is a bitmask of enabled points (1<<PointPoll | ...).
	// Zero enables every point.
	Points uint8

	visits [numPoints]atomic.Int64
	panics atomic.Int64
	sleeps atomic.Int64
}

// Visit is the hook called from an instrumented site. Nil-safe.
func (in *Injector) Visit(p Point) {
	if in == nil {
		return
	}
	if in.Points != 0 && in.Points&(1<<p) == 0 {
		return
	}
	n := in.visits[p].Add(1)
	if in.SleepEvery > 0 && n%in.SleepEvery == 0 {
		in.sleeps.Add(1)
		d := in.Sleep
		if d <= 0 {
			d = time.Millisecond
		}
		time.Sleep(d)
	}
	if in.PanicEvery > 0 && n%in.PanicEvery == 0 {
		in.panics.Add(1)
		panic(Injected{Point: p, Visit: n}) //gf:allowalloc firing a fault is the cold path by construction; production injectors are nil
	}
}

// Panics reports how many faults have been thrown.
func (in *Injector) Panics() int64 {
	if in == nil {
		return 0
	}
	return in.panics.Load()
}

// Sleeps reports how many stalls have been injected.
func (in *Injector) Sleeps() int64 {
	if in == nil {
		return 0
	}
	return in.sleeps.Load()
}
