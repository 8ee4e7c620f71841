package router

import (
	"math"
	"time"
)

// Stage is one phase of Router.Tick, in the order Tick runs them.
type Stage int

const (
	StageLatch    Stage = iota // the policy's latch, on a cycle with arrivals
	StageST                    // switch traversal of last cycle's grants
	StageAdmit                 // a header at the head of an idle VC takes it
	StageVA                    // VC allocation
	StageClassify              // which lanes ride a circuit, bypass or request SA
	StageRide                  // traversals on a pseudo-circuit
	StageSA                    // switch arbitration
	StagePCMaint               // pseudo-circuit termination and speculation
	StageArrivals              // flits that arrived this cycle enter their buffers
	NumStages
)

var stageNames = [NumStages]string{"latch", "st", "admit", "va", "classify", "ride", "sa", "pc-maint", "arrivals"}

func (s Stage) String() string { return stageNames[s] }

// StageBucket is one phase's account over every timed tick: the wall time
// spent in it, how many ticks ran it and how many skipped it.
type StageBucket struct {
	NS      int64
	Entered uint64
	Skipped uint64
}

// StageClock is the opt-in clock inside Router.Tick: one bucket per phase,
// shared by every router of a network (a cycle runs on one goroutine). A
// tick with the clock reads the monotonic clock once on entry and once after
// each phase it runs, so a bucket's time includes one clock read; ClockReadNS
// prices it. A phase Tick does not call is counted as skipped and costs no
// read. The clock observes only: a network ticks the same bits with it on
// and off. A nil clock costs Tick one nil test.
type StageClock struct {
	Stages [NumStages]StageBucket
	Ticks  uint64 // ticks timed
}

// clockEpoch anchors clockNS. time.Since of a time with a monotonic reading
// reads only the monotonic clock.
var clockEpoch = time.Now()

func clockNS() int64 { return int64(time.Since(clockEpoch)) }

// lap closes stage s, which began at from, and returns the time it ended.
func (c *StageClock) lap(s Stage, from int64) int64 {
	now := clockNS()
	b := &c.Stages[s]
	b.NS += now - from
	b.Entered++
	return now
}

// skip counts stages first..last as skipped by one tick.
func (c *StageClock) skip(first, last Stage) {
	for s := first; s <= last; s++ {
		c.Stages[s].Skipped++
	}
}

// ClockReadNS is the cost of one read of the stage clock on this host, in
// nanoseconds: the least mean over a few thousand back-to-back reads.
func ClockReadNS() float64 {
	const reads = 4096
	best := math.Inf(1)
	for rep := 0; rep < 8; rep++ {
		start := clockNS()
		for i := 0; i < reads; i++ {
			clockNS()
		}
		best = min(best, float64(clockNS()-start)/reads)
	}
	return best
}
