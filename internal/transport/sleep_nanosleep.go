//go:build linux || freebsd || netbsd || openbsd || dragonfly || solaris

package transport

import (
	"syscall"
	"time"
)

// sleepFor blocks the calling thread in nanosleep(2) for d. Unlike
// time.Sleep it does not wait on the runtime's timer, which rounds short
// idle waits up to a millisecond.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var left syscall.Timespec
		if err := syscall.Nanosleep(&ts, &left); err != syscall.EINTR {
			return
		}
		ts = left
	}
}
