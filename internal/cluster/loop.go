package cluster

import (
	"context"
	"errors"
	"slices"
	"time"
)

// machine is one node's protocol state, sending nothing, receiving
// nothing and reading no clock: an Algorithm 1 master or worker
// (node_machine.go) or an Algorithm 2 peer (elastic_machine.go). Its
// inputs are start, handle (one received envelope), tick (the deadline
// passed), sendFailed (a send that is not best-effort failed while this
// node was alive) and stop (the caller's context ended, with canceled
// set, or this node's own transport is gone). Its outputs are the sends,
// pulled in emission order from next, the deadline its loopState asks
// for, and its result once finished.
type machine interface {
	start()
	handle(env Envelope)
	tick()
	sendFailed(s outSend, err error)
	stop(err error, canceled bool)
	next() (outSend, bool)
	state() *loopState
}

// loopState is what the loop reads of a machine; every machine embeds it.
type loopState struct {
	out      fifo[outSend] // sends awaiting the loop
	wait     time.Duration // deadline to arm once the input's sends are out; 0: none
	deadline time.Time     // zero: wait forever
	finished bool
	err      error
}

func (l *loopState) state() *loopState { return l }

// send queues one message; nothing more leaves a finished machine.
func (l *loopState) send(to int, env Envelope, policy sendPolicy) {
	if !l.finished {
		l.out.push(outSend{to: to, env: env, policy: policy})
	}
}

// finish ends the run with err, nil for a complete one; sends queued
// before it still go out.
func (l *loopState) finish(err error) {
	if !l.finished {
		l.err, l.finished = err, true
	}
}

// drive runs m over tr until it finishes: the one driver loop, and the
// only driver code that reads the clock, for the deadline. It sends and
// receives on a child of the caller's context that only this node uses,
// so a blocking receive locks no channel another node locks too.
// started, when non-nil, runs once the first sends are out (a joiner's
// request).
func drive(ctx context.Context, tr *Meter, m machine, started func()) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	l := m.state()
	send := func(to int, env Envelope) error {
		_, err := tr.Send(ctx, to, env)
		return err
	}
	m.start()
	flush(ctx, m, send, time.Now)
	if started != nil {
		started()
	}
	for !l.finished {
		recvCtx, cancel := ctx, context.CancelFunc(nil)
		if !l.deadline.IsZero() {
			recvCtx, cancel = context.WithDeadline(ctx, l.deadline)
		}
		env, _, err := tr.Recv(recvCtx)
		if cancel != nil {
			cancel()
		}
		switch {
		case err == nil:
			m.handle(env)
		case ctx.Err() == nil && !l.deadline.IsZero() && errors.Is(err, context.DeadlineExceeded):
			m.tick()
		default:
			m.stop(err, ctx.Err() != nil)
			return
		}
		flush(ctx, m, send, time.Now)
	}
}

// flush hands every pending send of m to send, in emission order, and
// feeds failures back; best-effort sends ignore theirs. A send that
// failed because the caller's context or this node's own transport
// (closed, or crashed by Chaos) is gone stops the machine, unless it
// must be sent. Then flush arms the deadline the input asked for from
// clock, so it runs from once the input's sends are out. send and clock
// are parameters so the virtual-time runner in the tests can step any
// machine through flush.
func flush(ctx context.Context, m machine, send func(to int, env Envelope) error, clock func() time.Time) {
	for {
		s, ok := m.next()
		if !ok {
			break
		}
		err := send(s.to, s.env)
		switch {
		case err == nil || s.policy == bestEffort:
		case s.policy != mustSend && (ctx.Err() != nil || errors.Is(err, ErrChaosCrashed) || errors.Is(err, ErrClosed)):
			m.stop(err, ctx.Err() != nil)
			return
		default:
			m.sendFailed(s, err)
		}
	}
	if l := m.state(); l.wait > 0 {
		l.deadline, l.wait = clock().Add(l.wait), 0
	}
}

// checkRun validates what every driver takes: positive rounds, a
// deadline that is not negative, and a cost source for a node that plays.
func checkRun(rounds int, timeout time.Duration, srcs ...CostSource) error {
	switch {
	case rounds <= 0:
		return errors.New("cluster: rounds must be positive")
	case timeout < 0:
		return errors.New("cluster: RoundTimeout must not be negative")
	case slices.Contains(srcs, nil):
		return errors.New("cluster: nil cost source")
	}
	return nil
}
