package faults

import (
	"testing"

	"repro/internal/core"
)

func TestZeroConfigInjectsNothing(t *testing.T) {
	var c Config
	for seq := uint64(0); seq < 100; seq++ {
		if fire, _ := c.EINTR(1, seq); fire {
			t.Fatal("zero config fired EINTR")
		}
		if c.AcceptEAGAIN(1, seq) || c.ReadEAGAIN(1, seq) || c.WriteEAGAIN(1, seq) || c.OverflowStorm(1, seq) {
			t.Fatal("zero config fired a syscall fault")
		}
		if c.FateOf(int64(seq)) != FateNone {
			t.Fatal("zero config doomed a connection")
		}
	}
}

func TestDecisionsAreDeterministicAndSeedSensitive(t *testing.T) {
	a := Config{Seed: 1, EINTRRate: 0.5, ResetRate: 0.3, OverflowStormRate: 0.5}
	b := Config{Seed: 1, EINTRRate: 0.5, ResetRate: 0.3, OverflowStormRate: 0.5}
	other := Config{Seed: 2, EINTRRate: 0.5, ResetRate: 0.3, OverflowStormRate: 0.5}
	sameEINTR, sameStorm, sameFate := true, true, true
	for seq := uint64(0); seq < 512; seq++ {
		af, ad := a.EINTR(7, seq)
		bf, bd := b.EINTR(7, seq)
		if af != bf || ad != bd {
			t.Fatalf("seq %d: equal seeds diverged on EINTR", seq)
		}
		if a.OverflowStorm(7, seq) != b.OverflowStorm(7, seq) {
			t.Fatalf("seq %d: equal seeds diverged on OverflowStorm", seq)
		}
		if a.FateOf(int64(seq)) != b.FateOf(int64(seq)) {
			t.Fatalf("conn %d: equal seeds diverged on FateOf", seq)
		}
		of, _ := other.EINTR(7, seq)
		sameEINTR = sameEINTR && af == of
		sameStorm = sameStorm && a.OverflowStorm(7, seq) == other.OverflowStorm(7, seq)
		sameFate = sameFate && a.FateOf(int64(seq)) == other.FateOf(int64(seq))
	}
	if sameEINTR || sameStorm || sameFate {
		t.Fatalf("different seeds never diverged: eintr=%v storm=%v fate=%v", sameEINTR, sameStorm, sameFate)
	}
}

func TestRatesRoughlyHonoured(t *testing.T) {
	c := Config{Seed: 9, EINTRRate: 0.25, OverflowStormRate: 0.5, ResetRate: 0.2, VanishRate: 0.1}
	const n = 20000
	eintr, storm, resets, vanishes := 0, 0, 0, 0
	for seq := uint64(0); seq < n; seq++ {
		if fire, _ := c.EINTR(3, seq); fire {
			eintr++
		}
		if c.OverflowStorm(3, seq) {
			storm++
		}
		switch c.FateOf(int64(seq)) {
		case FateResetRequest, FateResetResponse:
			resets++
		case FateVanish:
			vanishes++
		}
	}
	within := func(got int, rate float64) bool {
		want := rate * n
		return float64(got) > 0.9*want && float64(got) < 1.1*want
	}
	if !within(eintr, 0.25) || !within(storm, 0.5) || !within(resets, 0.2) || !within(vanishes, 0.1) {
		t.Fatalf("rates off: eintr=%d storm=%d resets=%d vanishes=%d of %d", eintr, storm, resets, vanishes, n)
	}
}

func TestEINTRDelayWithinDocumentedBand(t *testing.T) {
	c := Config{Seed: 4, EINTRRate: 1, EINTRDelay: core.Millisecond}
	for seq := uint64(0); seq < 1000; seq++ {
		fire, d := c.EINTR(11, seq)
		if !fire {
			t.Fatalf("seq %d: rate 1 did not fire", seq)
		}
		if d < core.Millisecond/2 || d >= 3*core.Millisecond/2 {
			t.Fatalf("seq %d: delay %v outside [base/2, 3/2·base)", seq, d)
		}
	}
	// The zero delay defaults to 200µs.
	c.EINTRDelay = 0
	if _, d := c.EINTR(11, 0); d < 100*core.Microsecond || d >= 300*core.Microsecond {
		t.Fatalf("default delay %v outside the 200µs band", d)
	}
}

func TestResetFlavoursAlternateAndCutFractionBounded(t *testing.T) {
	c := Config{Seed: 6, ResetRate: 1}
	req, resp := 0, 0
	for id := int64(0); id < 1000; id++ {
		switch c.FateOf(id) {
		case FateResetRequest:
			req++
		case FateResetResponse:
			resp++
		default:
			t.Fatalf("conn %d: rate 1 left fate %v", id, c.FateOf(id))
		}
		if f := c.CutFraction(id); f < 0.1 || f >= 0.9 {
			t.Fatalf("conn %d: cut fraction %v outside [0.1, 0.9)", id, f)
		}
	}
	if req < 400 || resp < 400 {
		t.Fatalf("reset flavours unbalanced: request=%d response=%d", req, resp)
	}
}

func TestRetryJitterBandAndDeterminism(t *testing.T) {
	for conn := int64(0); conn < 100; conn++ {
		for attempt := 1; attempt <= 4; attempt++ {
			j := RetryJitter(1, conn, attempt)
			if j < 0.5 || j >= 1.5 {
				t.Fatalf("jitter %v outside [0.5, 1.5)", j)
			}
			if j != RetryJitter(1, conn, attempt) {
				t.Fatal("jitter not deterministic")
			}
		}
	}
	if RetryJitter(1, 1, 1) == RetryJitter(2, 1, 1) &&
		RetryJitter(1, 2, 1) == RetryJitter(2, 2, 1) &&
		RetryJitter(1, 3, 1) == RetryJitter(2, 3, 1) {
		t.Fatal("jitter ignores the seed")
	}
}

func TestSaltStringSeparatesStreams(t *testing.T) {
	if SaltString("server-a") == SaltString("server-b") {
		t.Fatal("distinct names share a salt")
	}
	c := Config{Seed: 1, OverflowStormRate: 0.5}
	same := true
	for seq := uint64(0); seq < 256; seq++ {
		same = same && c.OverflowStorm(SaltString("a"), seq) == c.OverflowStorm(SaltString("b"), seq)
	}
	if same {
		t.Fatal("per-instance streams are identical")
	}
}

func TestFateStrings(t *testing.T) {
	for fate, want := range map[ConnFate]string{
		FateNone:          "none",
		FateResetRequest:  "reset-request",
		FateResetResponse: "reset-response",
		FateVanish:        "vanish",
	} {
		if fate.String() != want {
			t.Fatalf("fate %d = %q, want %q", fate, fate.String(), want)
		}
	}
}
