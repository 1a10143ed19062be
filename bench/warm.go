package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// The open loop leaves both cores idle for two or three milliseconds between
// requests. An idle core of a virtual machine halts, the host takes it away,
// and the next request waits until the host hands it back: under a millisecond
// when the host is quiet, several when its other guests are busy, for minutes
// at a time. Measured on the host this was written on, ten runs of identical
// code then spread 10–15 % on the open loop's p50 and p99; with the cores kept
// from halting they spread 2–4 %. The closed loops never idle that long and
// are left alone.
//
// keepWarm therefore runs, beside an open-loop span, one spinning thread per
// core in the idle scheduling class (SCHED_IDLE). Such a thread runs only
// when nothing else wants its core and is put aside the moment anything does,
// so it takes no time from the server or the generator; it only keeps the
// guest's cores from halting. The threads live in a child process, this same
// program started with -keepwarm: in this process they would each hold one of
// the Go scheduler's processors and stall its garbage collector.

// warmCmdline is the command line of the keep-warm child, for the report.
var warmCmdline = []string{"bench", "-keepwarm"}

// keepWarm starts the child and returns the function that ends it and waits
// until it has gone. The child spins until its standard input closes, which
// it also does when this process dies.
func keepWarm() (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-keepwarm")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the keep-warm child: %w", err)
	}
	return func() {
		_ = stdin.Close() // nothing was written; closing is the signal
		_ = cmd.Wait()    // its exit status carries nothing
	}, nil
}

// schedIdle is SCHED_IDLE of <linux/sched.h>, which package syscall lacks.
const schedIdle = 5

// keepWarmChild is what -keepwarm runs: one spinning idle-class thread
// pinned to each core this process may use, until standard input closes.
func keepWarmChild() int {
	var allowed [16]uint64 // room for 1024 cores
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		fmt.Fprintln(os.Stderr, "bench: keepwarm: sched_getaffinity:", e)
		return 1
	}
	var cores []int
	for c := 0; c < 64*len(allowed); c++ {
		if allowed[c/64]&(1<<(c%64)) != 0 {
			cores = append(cores, c)
		}
	}
	// One processor for each spinner and one for this goroutine.
	runtime.GOMAXPROCS(len(cores) + 1)
	failed := make(chan error, len(cores)) // one send per spinner at most
	for _, c := range cores {
		go func(c int) {
			runtime.LockOSThread()
			var one [16]uint64
			one[c/64] = 1 << (c % 64)
			var prio int32 // sched_param: priority 0, the only one the idle class has
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 {
				failed <- fmt.Errorf("sched_setaffinity: %w", e)
				return
			}
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio))); e != 0 {
				// At normal priority the spinner would take half a core.
				failed <- fmt.Errorf("sched_setscheduler: %w", e)
				return
			}
			for {
			}
		}(c)
	}
	closed := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		close(closed)
	}()
	select {
	case err := <-failed:
		fmt.Fprintln(os.Stderr, "bench: keepwarm:", err)
		return 1
	case <-closed:
		return 0
	}
}
