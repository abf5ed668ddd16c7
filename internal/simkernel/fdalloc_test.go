package simkernel

import (
	"math/rand"
	"strconv"
	"testing"
)

// refLowestFree is the allocation rule stated as a linear scan: the lowest
// descriptor number from 3 up that is not open.
func refLowestFree(open []bool) int {
	n := 3
	for n < len(open) && open[n] {
		n++
	}
	return n
}

// Property: over random Install/CloseFD sequences, Install returns at every
// step exactly the number a linear scan of the open set returns. The held
// population drifts between empty and past descriptor 200, so searches start,
// end and run across the 64, 128 and 192 word boundaries, with holes left at
// random depths.
func TestInstallMatchesLinearScan(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial + 1)))
		p := NewKernel(nil).NewProc("test")
		var open []bool
		var held []int
		target := 0
		maxNum := 0
		for step := 0; step < 3000; step++ {
			if step%250 == 0 {
				target = rng.Intn(260)
			}
			install := len(held) == 0 || (len(held) < target && rng.Intn(10) < 8) ||
				(len(held) >= target && rng.Intn(10) < 2)
			if install {
				want := refLowestFree(open)
				got := p.Install(&fakeFile{}).Num
				if got != want {
					t.Fatalf("trial %d step %d: Install = %d, linear scan says %d (held %d)", trial, step, got, want, len(held))
				}
				for len(open) <= got {
					open = append(open, false)
				}
				open[got] = true
				held = append(held, got)
				maxNum = max(maxNum, got)
			} else {
				i := rng.Intn(len(held))
				fd := held[i]
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
				if err := p.CloseFD(0, fd); err != nil {
					t.Fatalf("trial %d step %d: CloseFD(%d): %v", trial, step, fd, err)
				}
				open[fd] = false
			}
			if p.NumFDs() != len(held) {
				t.Fatalf("trial %d step %d: NumFDs = %d, want %d", trial, step, p.NumFDs(), len(held))
			}
		}
		if maxNum < 200 {
			t.Fatalf("trial %d: highest descriptor %d, want the walk past 200", trial, maxNum)
		}
	}
}

// BenchmarkInstallClose times one Install and one CloseFD beside 251 held
// descriptors, the shape of churn-epoll's accept path: five short-lived
// descriptors sit 62 numbers apart among the held ones and rotate first in,
// first out, so most installs find their number past a run of open ones.
// The table is rebuilt (off the clock) every 4096 operations, because an
// installed FD's storage is never reused.
func BenchmarkInstallClose(b *testing.B) {
	var f fakeFile
	var p *Proc
	var live [4]int // the open short-lived descriptors, oldest at next
	next := 0
	build := func() {
		p = NewKernel(nil).NewProc("bench")
		for i := 0; i < 256; i++ {
			p.Install(&f)
		}
		// The lowest short-lived slot starts closed: the first install
		// takes it.
		if err := p.CloseFD(0, 3); err != nil {
			b.Fatal(err)
		}
		for i := range live {
			live[i] = 3 + 62*(i+1)
		}
		next = 0
	}
	build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4096 == 4095 {
			b.StopTimer()
			build()
			b.StartTimer()
		}
		old := live[next]
		live[next] = p.Install(&f).Num
		if err := p.CloseFD(0, old); err != nil {
			b.Fatal(err)
		}
		next = (next + 1) % len(live)
	}
}

// BenchmarkGetFD times one descriptor lookup (Proc.Get, the first step of
// every descriptor syscall) in a table of 251 held descriptors, the size of
// the churn and poll-scan workloads' inactive population, and of 300,000,
// the push-idle-epoll workload's held members. The looked-up numbers are
// drawn at random from the open ones before the timer starts.
func BenchmarkGetFD(b *testing.B) {
	for _, n := range []int{251, 300000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			var f fakeFile
			p := NewKernel(nil).NewProc("bench")
			for i := 0; i < n; i++ {
				p.Install(&f)
			}
			rng := rand.New(rand.NewSource(1))
			var nums [1024]int
			for i := range nums {
				nums[i] = 3 + rng.Intn(n)
			}
			found := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := p.Get(nums[i&(len(nums)-1)]); ok {
					found++
				}
			}
			b.StopTimer()
			if found != b.N {
				b.Fatalf("found %d of %d open descriptors", found, b.N)
			}
		})
	}
}
