//go:build !(linux || freebsd || netbsd || openbsd || dragonfly || solaris)

package transport

import "time"

// sleepFor sleeps for d. The platforms built here have no
// syscall.Nanosleep, so the step loop's grid is only as fine as the
// runtime timer.
func sleepFor(d time.Duration) { time.Sleep(d) }
