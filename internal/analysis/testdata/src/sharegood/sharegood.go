// Package sharegood holds clean negatives for the noshare analyzer:
// point-private construction, ownership transfer through non-guarded
// wrappers, and audited sharing suppressed with //xmem:share-ok.
package sharegood

import (
	"xmem/internal/experiments/runner"
	"xmem/internal/sim"
	"xmem/internal/workload"
)

// pointPrivate builds the Machine inside the sweep point — the ownership
// rule the analyzer enforces.
func pointPrivate(cfg sim.Config, w workload.Workload) error {
	points := []runner.Point[uint64]{{
		Key: "p0",
		Run: func(c *runner.Ctx) (uint64, error) {
			r, err := sim.Run(cfg, w)
			if err != nil {
				return 0, err
			}
			return r.Cycles, nil
		},
	}}
	_, err := runner.Run("sharegood", points, runner.Options{Parallel: 1})
	return err
}

// task is a carrier: it wraps a Machine together with the token channels of
// the multicore scheduler's ownership-transfer protocol. Capturing it in a
// goroutine is accepted only when the body proves the protocol.
type task struct {
	m     *sim.Machine
	start chan struct{}
	done  chan struct{}
	reqs  chan int
}

// handoff returns the channel that passes the token onward (the coreTask
// shape: the relinquishing send computes its destination from the carrier).
func (t *task) handoff() chan<- struct{} { return t.done }

// tokenProtocol is the proven-safe scheduler shape: the goroutine owns
// nothing until the token arrives (first use is a receive from a carrier
// channel field) and its last use relinquishes it with a send.
func tokenProtocol(t *task) {
	go func() {
		<-t.start
		_ = t.m
		t.done <- struct{}{}
	}()
}

// handoffSend: the final send may compute its channel from the carrier —
// `t.handoff() <- token{}` still places the last use inside a send.
func handoffSend(t *task) {
	go func() {
		<-t.start
		_ = t.m
		t.handoff() <- struct{}{}
	}()
}

// rangeProtocol: ranging over a carrier channel field also gates the first
// use on token arrival.
func rangeProtocol(t *task) {
	go func() {
		for range t.reqs {
			_ = t.m
		}
		t.done <- struct{}{}
	}()
}

// sliceOfCarriers: a slice of carriers is not itself a carrier — flagging
// would hit the scheduler's peers table; ownership of the elements is the
// elements' protocol's business.
func sliceOfCarriers(tasks []*task) {
	go func() {
		_ = len(tasks)
	}()
}

// auditedSameLine shares a Machine under a same-line audit marker.
func auditedSameLine(m *sim.Machine) {
	done := make(chan struct{})
	go func() {
		_ = m //xmem:share-ok audited: reader joins before owner resumes
		close(done)
	}()
	<-done
}

// auditedLineAbove shares a Machine with the marker on the preceding line.
func auditedLineAbove(m *sim.Machine) {
	done := make(chan struct{})
	go func() {
		//xmem:share-ok audited: reader joins before owner resumes
		_ = m
		close(done)
	}()
	<-done
}
