package cluster

// Bounded in-memory state. A long-lived router sees an unbounded stream
// of designs and migrations; everything it remembers about them must
// have a cap (the same discipline as the farm's RetainJobs). Two LRU
// caches (internal/lru) bound the replicated-artifact bytes and the
// design→route-key memo, and a drop-oldest ring bounds the migration
// event log.

// ringLog is a drop-oldest event log: at most cap recent entries are
// retained, with the total ever logged kept for the "last K of N"
// rendering. Not safe for concurrent use; the Router's mutex guards it.
type ringLog struct {
	cap     int
	entries []string
	total   int64
}

func newRingLog(capacity int) *ringLog {
	return &ringLog{cap: capacity}
}

func (l *ringLog) add(s string) {
	l.total++
	l.entries = append(l.entries, s)
	if len(l.entries) > l.cap {
		// Shift rather than reslice so the backing array never pins
		// dropped strings.
		copy(l.entries, l.entries[len(l.entries)-l.cap:])
		l.entries = l.entries[:l.cap]
	}
}

// snapshot returns the retained entries (oldest first) and the total
// ever logged.
func (l *ringLog) snapshot() ([]string, int64) {
	return append([]string(nil), l.entries...), l.total
}
