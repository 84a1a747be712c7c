package bench

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// Progress receives one line per completed run; nil is silent. A Progress
// handed to the parallel runner is called concurrently from its worker
// goroutines, so implementations must be safe for concurrent use —
// testing.T.Logf already is, and NewLineProgress wraps an arbitrary writer.
type Progress func(format string, args ...any)

func (p Progress) logf(format string, args ...any) {
	if p != nil {
		p(format, args...)
	}
}

// NewLineProgress returns a Progress that writes each message to w as one
// atomic line: a mutex serializes concurrent calls and a trailing newline is
// appended when missing, so logs from parallel cells never interleave within
// a line. The message is formatted before the lock is taken, keeping the
// critical section to the write itself.
func NewLineProgress(w io.Writer) Progress {
	var mu sync.Mutex
	return func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		if !strings.HasSuffix(msg, "\n") {
			msg += "\n"
		}
		mu.Lock()
		defer mu.Unlock()
		io.WriteString(w, msg)
	}
}
