package dist

import (
	"os"
	"testing"
)

// TestMain turns off the race runtime's exit sleep for the socket worker
// processes the tests spawn from this binary.  Under -race every worker
// would otherwise sleep atexit_sleep_ms (1 s by default) before exiting,
// and the socket suites spawn many of them.  The race runtime reads
// GORACE at process start, so this process keeps its own setting; only the
// children, which inherit the environment and whose exit statuses the
// coordinator ignores, see the appended option.
func TestMain(m *testing.M) {
	gorace := os.Getenv("GORACE")
	if gorace != "" {
		gorace += " "
	}
	os.Setenv("GORACE", gorace+"atexit_sleep_ms=0")
	os.Exit(m.Run())
}
