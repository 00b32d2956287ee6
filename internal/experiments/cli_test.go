package experiments

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mcommerce/internal/trace"
)

func parseRunFlags(t *testing.T, obsFlags bool, args ...string) (*RunFlags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := AddRunFlags(fs, 100*time.Millisecond)
	if obsFlags {
		f.AddObsFlags(fs)
	}
	if err := fs.Parse(args); err != nil {
		return f, err
	}
	return f, f.Validate(Min{Flag: "rounds", Value: 0})
}

func TestRunFlagsValidate(t *testing.T) {
	f, err := parseRunFlags(t, true)
	if err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if f.Seed != 1 || f.Shards != 1 || f.CC != "reno" || f.TraceSample != 1 || f.TimelineInterval != 100*time.Millisecond {
		t.Errorf("defaults = %+v", *f)
	}
	if f.NewTimeline() != nil {
		t.Error("timeline attached without -timeline or -slo")
	}
	if f, err := parseRunFlags(t, true, "-slo", "default", "-cc", "cubic"); err != nil || f.CC != "cubic" || f.NewTimeline() == nil {
		t.Errorf("-slo default -cc cubic: %v %+v", err, f)
	}
	if _, err := parseRunFlags(t, true, "-slo", "syncstorm"); err != nil {
		t.Errorf("-slo syncstorm: %v", err)
	}
	if _, err := parseRunFlags(t, true, "-slo", "rules.json"); err == nil || !strings.Contains(err.Error(), "default, mc, chaos, syncstorm, tcpfault, scale") {
		t.Errorf("-slo rules.json: err = %v, want one that lists the built-in sets", err)
	}
	// The bad values of each flag are inputs of the commands'
	// TestRunRejectsBadInputs tables. A command without the observability flags does not register them.
	if _, err := parseRunFlags(t, false, "-trace", "x.json"); err == nil {
		t.Error("-trace registered by AddRunFlags alone")
	}
	f = &RunFlags{Shards: 1, TraceSample: 1, TimelineInterval: time.Second}
	if err := f.Validate(Min{Flag: "clients", Value: 0, Min: 1}); err == nil || !strings.Contains(err.Error(), "-clients must be >= 1, got 0") {
		t.Errorf("count check: %v", err)
	}
}

// TestRunFlagsFinishAndExport drives the shared end-of-run path: without
// -trace/-timeline/-slo it writes nothing; with them it prints the
// verdicts and the critical-path table and writes both files.
func TestRunFlagsFinishAndExport(t *testing.T) {
	var b strings.Builder
	off := &RunFlags{}
	if err := off.FinishObs(&b, nil, "default"); err != nil {
		t.Fatal(err)
	}
	if err := off.ExportTrace(&b, nil, "transactions"); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("disabled flags wrote %q", b.String())
	}

	dir := t.TempDir()
	on := &RunFlags{Trace: filepath.Join(dir, "t.json"), TraceSample: 1,
		Timeline: filepath.Join(dir, "tl.json"), TimelineInterval: time.Second, SLO: "default"}
	tl := on.NewTimeline()
	var now time.Duration
	tr := trace.New(func() time.Duration { return now })
	on.EnableTrace(tr)
	root := tr.StartTrace("core.txn.wap", trace.LayerStation)
	now = time.Millisecond
	tr.Finish(root)
	if err := on.FinishObs(&b, tl, "default"); err != nil {
		t.Fatal(err)
	}
	if err := on.ExportTrace(&b, tr.Spans(), "transactions"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SLO verdicts (", "trace: 1 spans, 1 sampled transactions -> " + on.Trace} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("report missing %q:\n%s", want, b.String())
		}
	}
	for _, path := range []string{on.Trace, on.Timeline} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s not written: %v", path, err)
		}
	}
}
