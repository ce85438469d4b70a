package netem

import (
	"syscall"
	"time"
)

func init() { sleepUntil = nanosleepUntil }

// nanosleepUntil blocks the calling thread in nanosleep until t, which
// wakes within tens of microseconds; the runtime hands the thread's
// processor to other goroutines meanwhile. A signal cuts a nanosleep short,
// so it sleeps again for what is left.
func nanosleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			return
		}
	}
}
