package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// A script is what one process does: each step sleeps, polls, or spawns a
// child process and carries on. Kernel and reference both log one entry
// before every step, one per check of a poll's condition, and one when the
// script ends.
type script struct {
	name  string
	delay time.Duration // spawn delay
	steps []scriptStep
}

type scriptStep struct {
	sleep time.Duration
	child *script // non-nil: spawn it instead of sleeping
	// polls > 0: poll every sleep until the log has grown by polls entries
	// since the step began. Other processes grow the log too, so when the
	// condition flips depends on the whole schedule.
	polls int
}

type logEntry struct {
	at   time.Duration
	proc string
	step int
}

// referenceOrder is the model the kernel must agree with: keep every pending
// wake-up in a list, sort it by (time, schedule order), run the first. A
// poll is a sleep followed by a check, repeated until the check says yes.
func referenceOrder(roots []*script) []logEntry {
	type pending struct {
		at      time.Duration
		seq     int
		s       *script
		pc      int
		polling bool // wake up to check the condition of step pc
		start   int  // log length when the polling step began
	}
	var queue []pending
	var log []logEntry
	seq := 0
	push := func(ev pending) {
		seq++
		ev.seq = seq
		queue = append(queue, ev)
	}
	for _, s := range roots {
		push(pending{at: s.delay, s: s})
	}
	for len(queue) > 0 {
		sort.Slice(queue, func(i, j int) bool {
			if queue[i].at != queue[j].at {
				return queue[i].at < queue[j].at
			}
			return queue[i].seq < queue[j].seq
		})
		ev := queue[0]
		queue = queue[1:]
		pc := ev.pc
		if ev.polling {
			st := ev.s.steps[pc]
			log = append(log, logEntry{ev.at, ev.s.name, pc})
			if len(log)-ev.start < st.polls {
				ev.at += st.sleep
				push(ev)
				continue
			}
			pc++
		}
		for ; ; pc++ {
			log = append(log, logEntry{ev.at, ev.s.name, pc})
			if pc == len(ev.s.steps) {
				break
			}
			st := ev.s.steps[pc]
			if st.child != nil {
				push(pending{at: ev.at + st.child.delay, s: st.child})
				continue
			}
			if st.polls > 0 {
				push(pending{at: ev.at + st.sleep, s: ev.s, pc: pc, polling: true, start: len(log)})
			} else {
				push(pending{at: ev.at + st.sleep, s: ev.s, pc: pc + 1})
			}
			break
		}
	}
	return log
}

func kernelOrder(roots []*script) (log []logEntry, end time.Duration, live int) {
	k := New()
	var spawn func(s *script)
	spawn = func(s *script) {
		k.Spawn(s.name, s.delay, func(p *Proc) {
			for pc, st := range s.steps {
				log = append(log, logEntry{p.Now(), s.name, pc})
				switch {
				case st.child != nil:
					spawn(st.child)
				case st.polls > 0:
					start := len(log)
					p.Poll(st.sleep, func() bool {
						log = append(log, logEntry{p.Now(), s.name, pc})
						return len(log)-start >= st.polls
					})
				default:
					p.Sleep(st.sleep)
				}
			}
			log = append(log, logEntry{p.Now(), s.name, len(s.steps)})
		})
	}
	for _, s := range roots {
		spawn(s)
	}
	end = k.Run()
	return log, end, k.Live()
}

// randomScripts draws durations from a handful of small values, so that exact
// ties, zero sleeps and a sleeper that is alone in the queue are all common.
func randomScripts(rng *rand.Rand) []*script {
	durations := []time.Duration{0, 0, 1, 1, 2, 3, 5, 8}
	pick := func() time.Duration { return durations[rng.Intn(len(durations))] * time.Microsecond }
	names := 0
	var gen func(depth int) *script
	gen = func(depth int) *script {
		names++
		s := &script{name: fmt.Sprintf("p%d", names), delay: pick()}
		for n := rng.Intn(12); n > 0; n-- { // 0 steps: finishes at once
			switch r := rng.Intn(8); {
			case r == 0 && depth < 2:
				s.steps = append(s.steps, scriptStep{child: gen(depth + 1)})
			case r <= 2: // a poll's period is positive
				s.steps = append(s.steps, scriptStep{sleep: pick() + time.Microsecond, polls: 1 + rng.Intn(6)})
			default:
				s.steps = append(s.steps, scriptStep{sleep: pick()})
			}
		}
		return s
	}
	roots := make([]*script, 1+rng.Intn(8))
	for i := range roots {
		roots[i] = gen(0)
	}
	return roots
}

// TestDispatchOrderMatchesReference pins dispatch order, including the rule
// the in-place paths of Sleep and Poll depend on: a wake-up at the same
// instant as the head of the queue hands over, because the head was
// scheduled first. For Poll it also pins when, and how often, the condition
// is asked: the reference is a plain sleep-and-check loop.
func TestDispatchOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		roots := randomScripts(rand.New(rand.NewSource(seed)))
		want := referenceOrder(roots)
		got, end, live := kernelOrder(roots)
		if !slices.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d: %d entries, want %d; logs differ from entry %d:\n got %v\nwant %v",
				seed, len(got), len(want), i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
		}
		if last := want[len(want)-1].at; end != last || live != 0 {
			t.Fatalf("seed %d: Run returned %v with %d live, want %v and 0", seed, end, live, last)
		}
	}
}
