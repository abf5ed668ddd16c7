package core

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeAddSub(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(5 * Second)
	if t1 != Time(5*Second) {
		t.Fatalf("Add: got %d want %d", t1, 5*Second)
	}
	if d := t1.Sub(t0); d != 5*Second {
		t.Fatalf("Sub: got %v want %v", d, 5*Second)
	}
	if s := t1.Seconds(); s != 5.0 {
		t.Fatalf("Seconds: got %v want 5", s)
	}
}

func TestDurationConversions(t *testing.T) {
	d := 1500 * Microsecond
	if ms := d.Milliseconds(); ms != 1.5 {
		t.Fatalf("Milliseconds: got %v", ms)
	}
	if us := d.Microseconds(); us != 1500 {
		t.Fatalf("Microseconds: got %v", us)
	}
	if s := (2 * Second).Seconds(); s != 2.0 {
		t.Fatalf("Seconds: got %v", s)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{Forever, "forever"},
		{250 * Microsecond, "250.00µs"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("Duration(%d).String() = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestDurationScale(t *testing.T) {
	if got := (10 * Microsecond).Scale(2.5); got != 25*Microsecond {
		t.Fatalf("Scale: got %v want %v", got, 25*Microsecond)
	}
	if got := (10 * Microsecond).Scale(0); got != 0 {
		t.Fatalf("Scale(0): got %v", got)
	}
}

func TestTimeString(t *testing.T) {
	got := Time(1500 * Millisecond).String()
	if got != "1.500000s" {
		t.Fatalf("Time.String: got %q", got)
	}
}

func TestEventMaskString(t *testing.T) {
	m := POLLIN | POLLOUT
	s := m.String()
	if !strings.Contains(s, "POLLIN") || !strings.Contains(s, "POLLOUT") {
		t.Fatalf("String: got %q", s)
	}
	if EventMask(0).String() != "0" {
		t.Fatalf("zero mask: got %q", EventMask(0).String())
	}
	if got := POLLREMOVE.String(); got != "POLLREMOVE" {
		t.Fatalf("POLLREMOVE: got %q", got)
	}
	if got := EventMask(0x4000).String(); !strings.Contains(got, "0x4000") {
		t.Fatalf("unknown bits: got %q", got)
	}
	combined := (POLLHUP | EventMask(0x4000)).String()
	if !strings.Contains(combined, "POLLHUP") || !strings.Contains(combined, "0x4000") {
		t.Fatalf("mixed known/unknown: got %q", combined)
	}
}

// Unknown-bit rendering pinned exactly: a pure-unknown mask renders as one hex
// literal with no separator, multiple unknown bits collapse into a single
// literal, and a mixed mask joins names and the literal with "|" in order.
func TestEventMaskStringUnknownBits(t *testing.T) {
	cases := []struct {
		m    EventMask
		want string
	}{
		{EventMask(0x4000), "0x4000"},
		{EventMask(0x4000 | 0x0400), "0x4400"},
		{POLLIN | EventMask(0x0800), "POLLIN|0x800"},
		{POLLIN | POLLHUP | EventMask(0x4000), "POLLIN|POLLHUP|0x4000"},
		{POLLIN | POLLOUT, "POLLIN|POLLOUT"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("EventMask(%#x).String() = %q, want %q", uint16(c.m), got, c.want)
		}
	}
}

func TestEventMaskHasAny(t *testing.T) {
	m := POLLIN | POLLHUP
	if !m.Has(POLLIN) {
		t.Error("Has(POLLIN) = false")
	}
	if m.Has(POLLIN | POLLOUT) {
		t.Error("Has(POLLIN|POLLOUT) = true, want false")
	}
	if !m.Any(POLLOUT | POLLHUP) {
		t.Error("Any(POLLOUT|POLLHUP) = false")
	}
	if m.Any(POLLOUT | POLLPRI) {
		t.Error("Any(POLLOUT|POLLPRI) = true, want false")
	}
}

func TestEventMaskFlagsDistinct(t *testing.T) {
	flags := []EventMask{POLLIN, POLLPRI, POLLOUT, POLLERR, POLLHUP, POLLNVAL, POLLREMOVE}
	for i, a := range flags {
		for j, b := range flags {
			if i != j && a&b != 0 {
				t.Errorf("flags %d and %d overlap: %v %v", i, j, a, b)
			}
		}
	}
}

func TestErrorsDistinct(t *testing.T) {
	errs := []error{ErrBadFD, ErrExists, ErrNotFound, ErrClosed}
	seen := map[string]bool{}
	for _, e := range errs {
		if e == nil || e.Error() == "" {
			t.Fatalf("empty error in set")
		}
		if seen[e.Error()] {
			t.Fatalf("duplicate error message %q", e.Error())
		}
		seen[e.Error()] = true
	}
}

func TestSignalConstants(t *testing.T) {
	if SIGRTMIN <= SIGIO {
		t.Fatalf("SIGRTMIN (%d) must be above SIGIO (%d)", SIGRTMIN, SIGIO)
	}
}

// Property: Add/Sub round-trip for arbitrary times and durations that do not
// overflow the virtual-time range used by the simulation.
func TestTimeAddSubRoundTripProperty(t *testing.T) {
	f := func(base int64, delta int32) bool {
		t0 := Time(base % (1 << 50))
		d := Duration(delta)
		if d < 0 {
			d = -d
		}
		t1 := t0.Add(d)
		return t1.Sub(t0) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Has implies Any for any non-zero want mask.
func TestMaskHasImpliesAnyProperty(t *testing.T) {
	f := func(m, want uint16) bool {
		mask, w := EventMask(m), EventMask(want)
		if w == 0 {
			return true
		}
		if mask.Has(w) {
			return mask.Any(w)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Stats.Add must sum every counter: a field it misses would vanish from a
// multi-worker server's totals.
func TestStatsAddCoversEveryField(t *testing.T) {
	var one Stats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(1)
	}
	var sum Stats
	sum.Add(one)
	sum.Add(one)
	s := reflect.ValueOf(sum)
	for i := 0; i < s.NumField(); i++ {
		if got := s.Field(i).Int(); got != 2 {
			t.Errorf("Add left %s = %d, want 2", s.Type().Field(i).Name, got)
		}
	}
}
