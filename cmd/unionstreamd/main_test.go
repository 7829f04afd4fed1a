package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain runs the daemon instead of the tests when UNIONSTREAMD_ARGS
// is set, so a test can start the daemon as a child process.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("UNIONSTREAMD_ARGS"); ok {
		os.Args = append([]string{"unionstreamd"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runDaemon runs the test binary as unionstreamd with args and returns
// its exit code and combined output. A daemon that has not exited
// within five seconds is killed and reads as exit code -1.
func runDaemon(t *testing.T, args ...string) (code int, output string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), "UNIONSTREAMD_ARGS="+strings.Join(args, " "))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	default:
		t.Fatalf("running the daemon: %v", err)
		return 0, ""
	}
}

// TestMaxFrameAboveUint32Refused: a -max-frame that does not fit the
// 32-bit frame limit must stop the daemon with exit code 2 and name
// the flag, rather than wrap to a limit that refuses every push.
func TestMaxFrameAboveUint32Refused(t *testing.T) {
	code, out := runDaemon(t, "-addr", "127.0.0.1:0", "-max-frame", "4294967297")
	if code != 2 || !strings.Contains(out, "-max-frame 4294967297 outside [0,4294967295]") {
		t.Fatalf("exit code %d, output:\n%s\nwant exit code 2 naming -max-frame", code, out)
	}
}
