package obs

import (
	"strings"
	"testing"
)

func TestLazyFollowsTheEnabledRegistry(t *testing.T) {
	t.Cleanup(func() { Enable(nil) })
	type handles struct{ hits *Counter }
	resolved := 0
	l := NewLazy(func(r *Registry) handles {
		resolved++
		return handles{hits: r.Counter("lazy_hits_total", "Lazy test hits.")}
	})

	// Disabled: inert zero handles, nothing resolved.
	l.Get().hits.Inc()
	if l.Get().hits != nil || resolved != 0 {
		t.Fatalf("disabled Get resolved handles (%d resolutions)", resolved)
	}

	// Enable pre-creates the family at zero, before any use.
	a := NewRegistry()
	Enable(a)
	if !strings.Contains(a.RenderText(), "lazy_hits_total 0") {
		t.Errorf("family not pre-created on Enable:\n%s", a.RenderText())
	}
	before := resolved
	l.Get().hits.Inc()
	l.Get().hits.Inc()
	if resolved != before+1 {
		t.Errorf("two Gets against one registry resolved %d times, want 1", resolved-before)
	}

	// A registry swap re-resolves; counts land where they were resolved.
	b := NewRegistry()
	Enable(b)
	l.Get().hits.Inc()
	if !strings.Contains(a.RenderText(), "lazy_hits_total 2") || !strings.Contains(b.RenderText(), "lazy_hits_total 1") {
		t.Errorf("counts after swap:\nfirst:\n%s\nsecond:\n%s", a.RenderText(), b.RenderText())
	}
}
