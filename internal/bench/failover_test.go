package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/par"
)

// TestFailoverExperimentBadPhase: a kill-window typo must fail before any
// cell runs, naming the bad value and the accepted ones.
func TestFailoverExperimentBadPhase(t *testing.T) {
	var out bytes.Buffer
	err := FailoverExperimentPhase(context.Background(), &out, par.DefaultConfig(), true, NewRunner(0, nil), "bogus")
	if err == nil {
		t.Fatal("FailoverExperimentPhase(\"bogus\") = nil, want an error")
	}
	for _, want := range []string{"bogus", "precommit"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	if out.Len() != 0 {
		t.Fatalf("a rejected phase still produced output:\n%s", out.String())
	}
	for _, phase := range KillPhases {
		if err := ValidKillPhase(phase); err != nil {
			t.Errorf("ValidKillPhase(%q) = %v, want nil", phase, err)
		}
	}
}
