package clock

import (
	"testing"
	"time"
)

func TestWallBasics(t *testing.T) {
	before := time.Now()
	got := Wall.Now()
	if got.Before(before.Add(-time.Second)) {
		t.Fatalf("Wall.Now() = %v, far before time.Now() = %v", got, before)
	}
	select {
	case <-Wall.NewTimer(time.Millisecond).C:
	case <-time.After(5 * time.Second):
		t.Fatal("Wall.NewTimer(1ms) never fired")
	}
}

func TestOrWall(t *testing.T) {
	if OrWall(nil) != Wall {
		t.Fatal("OrWall(nil) != Wall")
	}
	v := NewVirtual(time.Time{})
	if OrWall(v) != v {
		t.Fatal("OrWall(v) did not return v")
	}
}

func TestVirtualNowAndAdvance(t *testing.T) {
	v := NewVirtual(time.Time{})
	if !v.Now().Equal(Epoch) {
		t.Fatalf("fresh virtual clock at %v, want %v", v.Now(), Epoch)
	}
	v.Advance(3 * time.Second)
	if want := Epoch.Add(3 * time.Second); !v.Now().Equal(want) {
		t.Fatalf("after Advance(3s): %v, want %v", v.Now(), want)
	}
	v.Advance(-time.Hour) // negative advances clamp to zero
	if want := Epoch.Add(3 * time.Second); !v.Now().Equal(want) {
		t.Fatalf("negative advance moved the clock: %v, want %v", v.Now(), want)
	}
}

func TestVirtualAfterFiresOnAdvance(t *testing.T) {
	v := NewVirtual(time.Time{})
	ch := v.NewTimer(100 * time.Millisecond).C
	select {
	case <-ch:
		t.Fatal("timer fired before any Advance")
	default:
	}
	v.Advance(50 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("timer fired before its deadline")
	default:
	}
	v.Advance(50 * time.Millisecond)
	select {
	case at := <-ch:
		if want := Epoch.Add(100 * time.Millisecond); !at.Equal(want) {
			t.Fatalf("timer fired with time %v, want %v", at, want)
		}
	default:
		t.Fatal("timer did not fire at its deadline")
	}
}

func TestVirtualAfterNonPositive(t *testing.T) {
	v := NewVirtual(time.Time{})
	select {
	case <-v.NewTimer(0).C:
	default:
		t.Fatal("NewTimer(0) did not fire immediately")
	}
	select {
	case <-v.NewTimer(-time.Second).C:
	default:
		t.Fatal("NewTimer(-1s) did not fire immediately")
	}
}

func TestVirtualNextTimer(t *testing.T) {
	v := NewVirtual(time.Time{})
	if _, ok := v.NextTimer(); ok {
		t.Fatal("fresh clock reports a pending timer")
	}
	v.NewTimer(200 * time.Millisecond)
	v.NewTimer(100 * time.Millisecond)
	at, ok := v.NextTimer()
	if !ok || !at.Equal(Epoch.Add(100*time.Millisecond)) {
		t.Fatalf("NextTimer = %v, %v; want %v, true", at, ok, Epoch.Add(100*time.Millisecond))
	}
	v.Advance(time.Second)
	if _, ok := v.NextTimer(); ok {
		t.Fatal("timers still pending after Advance past every deadline")
	}
}

func TestVirtualSleepWakesOnAdvance(t *testing.T) {
	v := NewVirtual(time.Time{})
	done := make(chan struct{})
	go func() {
		v.Sleep(10 * time.Millisecond)
		close(done)
	}()
	// Advance repeatedly until the sleeper registered its timer and woke.
	deadline := time.After(5 * time.Second)
	for {
		v.Advance(10 * time.Millisecond)
		select {
		case <-done:
			return
		case <-deadline:
			t.Fatal("virtual Sleep never woke")
		case <-time.After(time.Millisecond):
		}
	}
}

// TestTimerStop: a stopped timer never fires and, on a virtual clock, leaves
// the pending set; stopping a fired or already stopped timer reports false.
func TestTimerStop(t *testing.T) {
	v := NewVirtual(time.Time{})
	stopped := v.NewTimer(100 * time.Millisecond)
	kept := v.NewTimer(200 * time.Millisecond)
	if !stopped.Stop() {
		t.Fatal("Stop of a pending timer reported false")
	}
	if stopped.Stop() {
		t.Fatal("second Stop reported true")
	}
	if at, ok := v.NextTimer(); !ok || !at.Equal(Epoch.Add(200*time.Millisecond)) {
		t.Fatalf("NextTimer = %v, %v; want only the kept timer", at, ok)
	}
	v.Advance(time.Second)
	select {
	case <-stopped.C:
		t.Fatal("stopped timer fired")
	case <-kept.C:
	default:
		t.Fatal("kept timer did not fire")
	}
	if kept.Stop() {
		t.Fatal("Stop of a fired timer reported true")
	}
	if now := v.NewTimer(0); now.Stop() {
		t.Fatal("Stop of an immediate timer reported true")
	}

	w := Wall.NewTimer(time.Hour)
	if !w.Stop() {
		t.Fatal("Stop of a pending wall timer reported false")
	}
}
