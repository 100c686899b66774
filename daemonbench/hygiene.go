package main

// Process hygiene: every run, however it ends, closes what it opened and
// then proves it. The check fails if a daemon is still registered, a
// listener still accepts, a store directory survives, a child process
// exists, or goroutines or file descriptors stay above the count taken
// before the first daemon booted.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// addrSet records every listener address the run bound.
type addrSet struct {
	mu    sync.Mutex
	addrs []string
}

var hygieneAddrs = &addrSet{}

func (s *addrSet) add(a string) {
	s.mu.Lock()
	s.addrs = append(s.addrs, a)
	s.mu.Unlock()
}

func (s *addrSet) list() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.addrs...)
}

// baseline is the process state before any daemon exists.
type baseline struct {
	goroutines int
	fds        int
	tmpRoot    string
}

func takeBaseline(tmpRoot string) baseline {
	return baseline{goroutines: runtime.NumGoroutine(), fds: countFDs(), tmpRoot: tmpRoot}
}

// countFDs counts this process's open file descriptors (-1 where /proc
// is unavailable).
func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// childProcesses lists the pids whose parent is this process.
func childProcesses() []int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	self := os.Getpid()
	var kids []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// Fields after the parenthesised command: state, ppid, ...
		s := string(b)
		i := strings.LastIndexByte(s, ')')
		if i < 0 {
			continue
		}
		f := strings.Fields(s[i+1:])
		if len(f) > 1 {
			if ppid, err := strconv.Atoi(f[1]); err == nil && ppid == self {
				kids = append(kids, pid)
			}
		}
	}
	return kids
}

// verify closes anything still open, removes the temp root and then
// checks that nothing from the run survives. Goroutine and descriptor
// counts get a short grace period for exiting connection handlers.
func (b baseline) verify() error {
	liveDaemons.closeAll()
	closeClients()
	var errs []error
	if err := os.RemoveAll(b.tmpRoot); err != nil {
		errs = append(errs, fmt.Errorf("remove temp stores: %w", err))
	}
	if _, err := os.Stat(b.tmpRoot); !errors.Is(err, os.ErrNotExist) {
		errs = append(errs, fmt.Errorf("temp store root %s survives", b.tmpRoot))
	}
	if n := liveDaemons.len(); n > 0 {
		errs = append(errs, fmt.Errorf("%d daemons still registered", n))
	}
	for _, a := range hygieneAddrs.list() {
		if c, err := net.DialTimeout("tcp", a, 200*time.Millisecond); err == nil {
			c.Close()
			errs = append(errs, fmt.Errorf("listener %s still accepts", a))
		}
	}
	if kids := childProcesses(); len(kids) > 0 {
		errs = append(errs, fmt.Errorf("child processes survive: %v", kids))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		g, fds := runtime.NumGoroutine(), countFDs()
		if g <= b.goroutines && fds <= b.fds {
			break
		}
		if time.Now().After(deadline) {
			if g > b.goroutines {
				buf := make([]byte, 1<<16)
				buf = buf[:runtime.Stack(buf, true)]
				fmt.Fprintf(os.Stderr, "daemonbench: surviving goroutines:\n%s\n", buf)
				errs = append(errs, fmt.Errorf("%d goroutines survive (baseline %d)", g, b.goroutines))
			}
			if fds > b.fds {
				errs = append(errs, fmt.Errorf("%d file descriptors open (baseline %d)", fds, b.fds))
			}
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	return errors.Join(errs...)
}
