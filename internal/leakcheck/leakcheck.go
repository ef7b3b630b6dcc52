// Package leakcheck is the leak check shared by the tests of the
// packages that start servers, workers and shard scratch: Check fails a
// test that leaves goroutines or mpvar-* temp entries behind. Only tests
// import it.
package leakcheck

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// Check fails the test unless, at cleanup, its goroutines settle back to
// the count at the call within a few seconds (every stack is dumped if
// they do not) and no new mpvar-* entry is left under os.TempDir().
// TMPDIR points at a fresh per-test directory for the test's duration,
// so other test processes' scratch cannot show up in the check. Call it
// first: cleanups run last-in first-out, so the check runs after every
// server and worker the test made has shut down.
func Check(t testing.TB) {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	tmp := os.TempDir()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<20)
			t.Errorf("%d goroutines at cleanup, %d at start:\n%s", n, before, buf[:runtime.Stack(buf, true)])
		}
		if left, _ := filepath.Glob(filepath.Join(tmp, "mpvar-*")); len(left) > 0 {
			t.Errorf("left behind under %s: %v", tmp, left)
		}
	})
}
