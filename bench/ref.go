package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host the benchmark runs on changes speed under it: on the 2-vCPU
// guest the benchmark was built on, the same work took up to twice as
// much CPU from one minute, or one second, to the next, because other
// guests share the physical cores. A refMeter measures that speed while
// the program runs, so that the timed metrics can be scaled to a fixed
// reference speed.
//
// It runs on an OS thread of its own and, every refPeriod, makes two
// HTTP/1.1 exchanges with itself over one loopback TCP connection: it
// writes a signed GET /v1/freq request, reads it back as a server, writes
// a JSON frequency vector as the answer, and reads that as a client. The
// first exchange warms the caches the sleep let go cold; the thread's CPU
// clock times the second. Timing the cold one too tracked the daemons
// worse: how cold a cache is depends on what else ran in between. The
// exchange is the same kind of work the daemons do per request (loopback
// TCP, HTTP parsing), and its code and bytes are the benchmark's own, so
// nothing the program under test does changes its work; it still shares
// the cores with the daemons, so a change that makes them thrash the
// shared caches slows it too, and such a change is understated.
type refMeter struct {
	stop chan struct{}
	done chan struct{}

	mu sync.Mutex
	// times holds the timed exchanges since the last mark; total is the
	// thread's CPU time since the meter started.
	times []time.Duration
	total time.Duration
	err   error
}

// refPeriod is the pause between two pairs of exchanges; they use about
// 2.5% of one core.
const refPeriod = 2 * time.Millisecond

// refNominal is the reference speed the timed metrics are scaled to. It is
// a round figure near the CPU time a timed exchange took on the guest
// (19-27 µs), so that scaled values read close to measured ones; changing
// it rescales every timed metric and is a benchmark change.
const refNominal = 25 * time.Microsecond

var (
	refBody = []byte(`{"x":440512.5,"y":4428712.25,"r":1000,"freq":[` + strings.Repeat("0,", 120) +
		strings.Repeat("3,", 56) + `1]}`)
	refRequest = []byte("GET /v1/freq?r=1000&x=440512.5&y=4428712.25 HTTP/1.1\r\nHost: 127.0.0.1\r\n" +
		"User-Agent: Go-http-client/1.1\r\nX-Auth: POIAGG1 principal=c0000-5f3a9e,ts=1760000000," +
		"nonce=9e3779b97f4a7c15,sig=" + strings.Repeat("6a", 32) + "\r\n\r\n")
	refResponse = []byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(refBody)) + "\r\n\r\n" + string(refBody))
)

// startRefMeter starts measuring; stop it with stopMeter.
func startRefMeter() (*refMeter, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	client, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return nil, err
	}
	server, err := l.Accept()
	if err != nil {
		client.Close()
		return nil, err
	}
	m := &refMeter{stop: make(chan struct{}), done: make(chan struct{})}
	go m.run(client, server)
	return m, nil
}

func (m *refMeter) run(client, server net.Conn) {
	defer close(m.done)
	defer client.Close()
	defer server.Close()
	// Locked, the goroutine is the only one on its thread, so the
	// thread's CPU clock times the exchanges alone.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cr, sr := bufio.NewReader(client), bufio.NewReader(server)
	start := threadCPU()
	for {
		select {
		case <-m.stop:
			return
		default:
		}
		sleepFor(refPeriod)
		err := exchange(client, server, cr, sr)
		t0 := threadCPU()
		if err == nil {
			err = exchange(client, server, cr, sr)
		}
		t1 := threadCPU()
		m.mu.Lock()
		m.total = t1 - start
		if err != nil {
			m.err = fmt.Errorf("reference exchange: %w", err)
			m.mu.Unlock()
			return
		}
		m.times = append(m.times, t1-t0)
		m.mu.Unlock()
	}
}

// exchange makes one reference exchange. Loopback TCP delivers a write to
// the peer before it returns, so each read finds its bytes waiting.
func exchange(client, server net.Conn, cr, sr *bufio.Reader) error {
	if _, err := client.Write(refRequest); err != nil {
		return err
	}
	req, err := http.ReadRequest(sr)
	if err != nil {
		return err
	}
	req.Body.Close()
	if _, err := server.Write(refResponse); err != nil {
		return err
	}
	resp, err := http.ReadResponse(cr, req)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err
}

// mark returns the median CPU time of the exchanges timed since the
// previous mark, waiting for one if none has been: the median, because an
// exchange the host interrupts takes many times as long.
func (m *refMeter) mark() (time.Duration, error) {
	for {
		m.mu.Lock()
		times, err := m.times, m.err
		if len(times) > 0 {
			m.times = nil
		}
		m.mu.Unlock()
		if err != nil {
			return 0, err
		}
		if len(times) > 0 {
			slices.Sort(times)
			return times[len(times)/2], nil
		}
		sleepFor(refPeriod / 4)
	}
}

// used is the CPU time the meter's thread has used, which the generator's
// own CPU time includes.
func (m *refMeter) used() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// stopMeter stops the meter and waits until its thread has finished.
func (m *refMeter) stopMeter() {
	close(m.stop)
	<-m.done
}

// atRef scales a time measured while one reference exchange took ref to
// the reference speed.
func atRef(v float64, ref time.Duration) float64 {
	return v * float64(refNominal) / float64(ref)
}

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID of clock_gettime(2).
const clockThreadCPUTime = 3

// threadCPU returns the calling thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	// clock_gettime fails only for an invalid clock or address.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
