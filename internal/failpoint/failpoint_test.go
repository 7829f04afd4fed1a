package failpoint

import (
	"errors"
	"sync"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

func TestDisabledIsNoOpAndAllocFree(t *testing.T) {
	Reset()
	if err := Inject(ClientDial); err != nil {
		t.Fatalf("unarmed site injected %v", err)
	}
	if Armed() {
		t.Fatal("Armed() true with no sites enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := Inject(ServerAbsorb); err != nil {
			t.Errorf("unexpected injection: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("disabled Inject allocates %.1f objects/op; must be 0", allocs)
	}
}

func TestEnableDisableAndHits(t *testing.T) {
	Reset()
	Enable(ClientDial, Error(errBoom))
	defer Reset()
	if !Armed() {
		t.Fatal("Armed() false after Enable")
	}
	for i := 0; i < 3; i++ {
		if err := Inject(ClientDial); !errors.Is(err, errBoom) {
			t.Fatalf("hit %d: err = %v, want errBoom", i, err)
		}
	}
	if got := Hits(ClientDial); got != 3 {
		t.Errorf("Hits = %d, want 3", got)
	}
	// Other sites stay unarmed.
	if err := Inject(ServerAccept); err != nil {
		t.Errorf("unrelated site injected %v", err)
	}
	if got := Hits(ServerAccept); got != 0 {
		t.Errorf("unarmed site Hits = %d", got)
	}
	Disable(ClientDial)
	if err := Inject(ClientDial); err != nil {
		t.Errorf("disabled site injected %v", err)
	}
	if Armed() {
		t.Error("Armed() true after Disable of only site")
	}
	Disable(ClientDial) // idempotent
	if Armed() {
		t.Error("double Disable corrupted the armed count")
	}
}

func TestTimesHookRecovers(t *testing.T) {
	Reset()
	Enable(WireEncode, Times(2, errBoom))
	defer Reset()
	for i := 0; i < 2; i++ {
		if err := Inject(WireEncode); !errors.Is(err, errBoom) {
			t.Fatalf("hit %d: err = %v, want errBoom", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := Inject(WireEncode); err != nil {
			t.Fatalf("post-recovery hit %d: err = %v", i, err)
		}
	}
	if got := Hits(WireEncode); got != 5 {
		t.Errorf("Hits = %d, want 5", got)
	}
}

func TestSleepHookDelays(t *testing.T) {
	Reset()
	Enable(ServerDrain, Sleep(20*time.Millisecond))
	defer Reset()
	start := time.Now()
	if err := Inject(ServerDrain); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("Sleep hook returned after %v, want >= 20ms", elapsed)
	}
}

// TestConcurrentInjectIsRaceFree exists for the -race run: many
// goroutines hitting a site while another enables/disables it must not
// race or lose the armed count.
func TestConcurrentInjectIsRaceFree(t *testing.T) {
	Reset()
	defer Reset()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = Inject(ClientRead)
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		Enable(ClientRead, Error(errBoom))
		Disable(ClientRead)
	}
	close(stop)
	wg.Wait()
	if Armed() {
		t.Error("armed count nonzero after balanced enable/disable")
	}
}

// TestDeclareRefusesRepeatedName: two sites sharing a name would arm
// each other, so declaring an existing name panics.
func TestDeclareRefusesRepeatedName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("declare of an existing site name did not panic")
		}
	}()
	declare(WALAppend.String())
}
