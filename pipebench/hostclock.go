package main

import (
	"bytes"
	"os"
	"strconv"
	"time"
)

// The benchmark times its work in host time: wall-clock time less the share
// of the machine's CPU time that the hypervisor gave to other guests while
// it ran (steal time in /proc/stat). On a virtual machine whose host is
// shared, steal comes and goes over seconds to minutes and stretches every
// wall-clock timing with it, so the same code reads faster or slower
// depending on the neighbours. Host time is what the work takes on the CPU
// time the machine actually got. Waiting inside the program (locks, queues,
// sockets, sleeps) still counts in full. Where /proc/stat cannot be read,
// host time is wall time.

// clockReading is an instant: wall time plus the machine's CPU-time
// counters in clock ticks, summed over all CPUs.
type clockReading struct {
	wall         time.Time
	steal, total uint64
}

func readClock() clockReading {
	r := clockReading{wall: time.Now()}
	r.steal, r.total = readCPUTicks()
	return r
}

// stealShare is the share of the machine's CPU time stolen between r and
// a later reading.
func (r clockReading) stealShare(later clockReading) float64 {
	if later.total <= r.total || later.steal < r.steal {
		return 0
	}
	return float64(later.steal-r.steal) / float64(later.total-r.total)
}

// hostSince is the host time from r to a later reading.
func (r clockReading) hostSince(later clockReading) time.Duration {
	wall := later.wall.Sub(r.wall)
	return time.Duration(float64(wall) * (1 - r.stealShare(later)))
}

// hostElapsed is the host time from r to now.
func (r clockReading) hostElapsed() time.Duration { return r.hostSince(readClock()) }

// readCPUTicks returns the steal and total ticks of the aggregate "cpu"
// line of /proc/stat, or zeros when it cannot be read.
func readCPUTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	return parseCPUTicks(b)
}

// parseCPUTicks reads the aggregate "cpu" line: user nice system idle
// iowait irq softirq steal [guest guest_nice]. Guest time is already
// counted in user and nice, so the total is the first eight fields.
func parseCPUTicks(stat []byte) (steal, total uint64) {
	line, _, _ := bytes.Cut(stat, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(string(f), 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
