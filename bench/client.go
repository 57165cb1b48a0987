package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection driven by hand: requests are
// written as pre-encoded bytes and responses parsed just far enough to
// find the status and the Content-Length body. net/http's client costs
// several goroutine hand-offs per request, which on two cores is load the
// generator would put on the daemon it is timing.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// do sends one request and returns the status and body. The body is valid
// until the next call.
func (c *conn) do(req []byte) (int, []byte, error) {
	if err := c.c.SetDeadline(time.Now().Add(15 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("short status line %q", line)
	}
	status := int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	length := -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		const key = "content-length:"
		if len(line) > len(key) && bytes.EqualFold(line[:len(key)], []byte(key)) {
			length = 0
			for _, ch := range bytes.TrimSpace(line[len(key):]) {
				length = length*10 + int(ch-'0')
			}
		}
	}
	if length < 0 {
		return 0, nil, fmt.Errorf("response without Content-Length (status %d)", status)
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	for n := 0; n < length; {
		m, err := c.br.Read(c.body[n:])
		if err != nil {
			return 0, nil, err
		}
		n += m
	}
	return status, c.body, nil
}

// op performs one primary operation of a workload on a connection. It
// reports how long its socket round trips took and whether every response
// in it was valid.
type op func(c *conn) (time.Duration, bool)

// phase is what one timed phase observed.
type phase struct {
	lat     []time.Duration // per valid operation; from the due time in a paced phase
	late    []time.Duration // paced phase: how long after its due time each operation was sent
	sent    int
	failed  int
	elapsed time.Duration
}

func (p *phase) merge(q *phase) {
	p.lat = append(p.lat, q.lat...)
	p.late = append(p.late, q.late...)
	p.sent += q.sent
	p.failed += q.failed
}

// onEachConn runs body once per connection, each on its own goroutine
// with its own phase to fill, waits for all of them and merges the phases.
func onEachConn(conns []*conn, body func(i int, p *phase)) *phase {
	var wg sync.WaitGroup
	parts := make([]phase, len(conns))
	start := time.Now()
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body(i, &parts[i])
		}(i)
	}
	wg.Wait()
	total := &phase{elapsed: time.Since(start)}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// closedLoop runs ops back to back on every connection until the deadline
// (or, with count > 0, until that many have been sent in total): each
// caller waits for its reply before asking again.
func closedLoop(conns []*conn, ops []op, d time.Duration, count int) *phase {
	var taken atomic.Int64
	start := time.Now()
	return onEachConn(conns, func(i int, p *phase) {
		for {
			if count > 0 {
				if taken.Add(1) > int64(count) {
					return
				}
			} else if time.Since(start) >= d {
				return
			}
			dt, ok := ops[i](conns[i])
			p.sent++
			if ok {
				p.lat = append(p.lat, dt)
			} else {
				p.failed++
			}
		}
	})
}

// sleepUntil blocks the calling thread until t with the kernel's
// high-resolution timer. time.Sleep rounds short waits up to the runtime's
// millisecond poll granularity, four arrival intervals at 4,000 a second;
// nanosleep with the thread's timer slack set to its minimum wakes within
// some tens of microseconds.
func sleepUntil(t time.Time) {
	const prSetTimerslack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) // best effort: with the default slack the wake-up is only later
	for wait := time.Until(t); wait > 0; wait = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // a signal cuts it short; the loop sleeps the rest
	}
}

// pacedLoop is the open loop: operation k is due at start + k/rate whatever
// happened to the ones before it. A connection that is free takes the next
// due operation and sleeps until its time; when every connection is busy
// the operation is sent late, never dropped, and the schedule is never
// re-based. Latency runs from the due time, so a stall is charged to every
// arrival it delays.
func pacedLoop(conns []*conn, ops []op, d time.Duration, rate float64) *phase {
	interval := time.Duration(float64(time.Second) / rate)
	n := int64(d / interval)
	var next atomic.Int64
	start := time.Now()
	return onEachConn(conns, func(i int, p *phase) {
		for {
			k := next.Add(1) - 1
			if k >= n {
				return
			}
			due := start.Add(time.Duration(k) * interval)
			sleepUntil(due)
			sent := time.Now()
			_, ok := ops[i](conns[i])
			done := time.Now()
			p.sent++
			p.late = append(p.late, sent.Sub(due))
			if ok {
				p.lat = append(p.lat, done.Sub(due))
			} else {
				p.failed++
			}
		}
	})
}
