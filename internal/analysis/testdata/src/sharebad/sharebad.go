// Package sharebad holds true positives for the noshare analyzer: every way
// a single-owner simulator value can leak into concurrent execution.
package sharebad

import (
	"xmem/internal/core"
	"xmem/internal/dram"
	"xmem/internal/experiments/runner"
	"xmem/internal/sim"
)

// leakedMachine is the package-level escape target.
var leakedMachine *sim.Machine

// goCapture starts a goroutine over a Machine it does not own.
func goCapture(m *sim.Machine) {
	go func() {
		_ = m // want "captured by a function started by a go statement"
	}()
}

// goCaptureLib leaks the XMemLib handle the same way.
func goCaptureLib(lib *core.Lib) {
	done := make(chan struct{})
	go func() {
		_ = lib // want "captured by a function"
		close(done)
	}()
	<-done
}

// goCaptureRegions leaks a hybrid or NUMA machine's region memory, whose
// controllers sit in a slice rather than in a guarded field.
func goCaptureRegions(rm *dram.RegionMemory) {
	go func() {
		_ = rm // want "captured by a function started by a go statement"
	}()
}

// sweepCapture shares one Machine across concurrently-running sweep points.
func sweepCapture(m *sim.Machine) error {
	points := []runner.Point[int]{{
		Key: "p0",
		Run: func(c *runner.Ctx) (int, error) {
			_ = m // want "not safe for concurrent use"
			return 0, nil
		},
	}}
	_, err := runner.Run("sharebad", points, runner.Options{Parallel: 1})
	return err
}

// inlineCapture passes the leaking literal straight into runner.Run.
func inlineCapture(m *sim.Machine) error {
	_, err := runner.Run("sharebad-inline", []runner.Point[int]{{
		Key: "k",
		Run: func(c *runner.Ctx) (int, error) {
			_ = m // want "not safe for concurrent use"
			return 0, nil
		},
	}}, runner.Options{Parallel: 1})
	return err
}

// storeGlobal parks a Machine where any goroutine can reach it.
func storeGlobal(m *sim.Machine) {
	leakedMachine = m // want "stored into package-level variable"
}

// task is a carrier: it holds a Machine, so capturing it hands the Machine
// over unless the goroutine proves the ownership-transfer protocol.
type task struct {
	m     *sim.Machine
	start chan struct{}
	done  chan struct{}
}

// leakedTask is the package-level escape target for carriers.
var leakedTask *task

// wrapperCapture captures the carrier with no protocol at all: the first
// use reaches straight through to the Machine.
func wrapperCapture(t *task) {
	go func() {
		_ = t.m // want "without the ownership-transfer protocol"
		close(t.done)
	}()
}

// noRelinquish receives the token but never sends it onward: the goroutine
// keeps using the carrier after the owner may have resumed.
func noRelinquish(t *task) {
	go func() {
		<-t.start // want "without the ownership-transfer protocol"
		_ = t.m
	}()
}

// useAfterSend relinquishes mid-body and then touches the carrier again —
// the last use is not the send.
func useAfterSend(t *task) {
	go func() {
		<-t.start // want "without the ownership-transfer protocol"
		t.done <- struct{}{}
		_ = t.m
	}()
}

// carrierSweep: sweep points run concurrently, so no token protocol can
// serialize them — a captured carrier is always a finding there.
func carrierSweep(t *task) error {
	points := []runner.Point[int]{{
		Key: "p0",
		Run: func(c *runner.Ctx) (int, error) {
			_ = t.m // want "without the ownership-transfer protocol"
			return 0, nil
		},
	}}
	_, err := runner.Run("sharebad-carrier", points, runner.Options{Parallel: 1})
	return err
}

// carrierGlobal parks the carrier — and the Machine it holds — in package
// scope.
func carrierGlobal(t *task) {
	leakedTask = t // want "stored into package-level variable"
}
