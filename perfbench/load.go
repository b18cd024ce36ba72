package main

import "time"

// clock is the time source of the load generators; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop sends requests on a fixed schedule over one connection: request
// i is due at start + i·interval, whatever happened to earlier requests.
// One connection serves one request at a time, so a request that stalls
// delays every request queued behind it; each latency is measured from the
// request's due time, which charges that wait to the requests that paid it
// (no coordinated omission). The one delay not charged is the generator's
// own: when the connection was free at the due time but the generator woke
// late, the latency counts from the send. That lateness is still recorded.
type openLoop struct {
	interval time.Duration
	clock    clock
}

// loadStats is what one open-loop client saw.
type loadStats struct {
	lat  samples
	late []float64 // ms each request started after its due time
}

// run issues op, request i, for every due time before stop. op returns
// the request's error, if it failed.
func (l openLoop) run(stop time.Time, op func(i int) error) *loadStats {
	st := &loadStats{}
	start := l.clock.Now()
	free := start // when the connection finished its previous request
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * l.interval)
		if !due.Before(stop) {
			return st
		}
		if now := l.clock.Now(); now.Before(due) {
			l.clock.Sleep(due.Sub(now))
		}
		sent := l.clock.Now()
		st.late = append(st.late, float64(sent.Sub(due))/float64(time.Millisecond))
		// The wait behind a busy connection is the program's and counts;
		// any further delay before the send is the generator waking late.
		busyUntil := due
		if free.After(due) {
			busyUntil = free
		}
		ownLate := max(sent.Sub(busyUntil), 0)
		err := op(i)
		free = l.clock.Now()
		if err != nil {
			st.lat.fail()
			continue
		}
		st.lat.add(free.Sub(due) - ownLate)
	}
}
