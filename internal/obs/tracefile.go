package obs

import (
	"errors"
	"os"
)

// TraceToFile creates path, enables a tracer writing to it and returns
// a close function that finishes the JSON array, disables tracing and
// closes the file — the -trace flag lifecycle the command-line tools
// share. An empty path is a no-op with a nil-safe close.
func TraceToFile(path string) (closeTrace func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	tr := NewTracer(f)
	EnableTrace(tr)
	return func() error {
		EnableTrace(nil)
		return errors.Join(tr.Close(), f.Close())
	}, nil
}
