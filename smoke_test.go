// Smoke tests: every command under cmd/ and every program under examples/
// must compile and run to completion with tiny parameters. These catch
// wiring regressions (flag parsing, topology construction, planner
// defaults) that package-level unit tests cannot see.
package heroserve

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runCmd executes `go run ./dir args...`, feeding stdin from the named file
// when it is non-empty, and returns combined output.
func runCmd(t *testing.T, stdin, dir string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "./" + dir}, args...)...)
	cmd.Env = os.Environ()
	if stdin != "" {
		f, err := os.Open(stdin)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		cmd.Stdin = f
	}
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// run is runCmd without stdin, failing the test on a non-zero exit.
func run(t *testing.T, dir string, args ...string) string {
	t.Helper()
	out, err := runCmd(t, "", dir, args...)
	if err != nil {
		t.Fatalf("go run ./%s %v: %v\n%s", dir, args, err, out)
	}
	return out
}

func TestCommandSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests compile binaries")
	}
	tmp := t.TempDir()
	traceFile := filepath.Join(tmp, "trace.json")
	writeTrace := func(t *testing.T) {
		if _, err := os.Stat(traceFile); err == nil {
			return
		}
		out := run(t, "cmd/tracegen", "-n", "5", "-rate", "2")
		if err := os.WriteFile(traceFile, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The hstat cases read the artefacts of one tiny telemetered serve run.
	art := func(name string) string { return filepath.Join(tmp, name) }
	writeArtefacts := func(t *testing.T) {
		if _, err := os.Stat(art("perf.json")); err == nil {
			return
		}
		writeTrace(t)
		run(t, "cmd/serve", "-trace", traceFile, "-model", "opt-13b",
			"-trace-out", art("spans.json"), "-decisions-out", art("decisions.json"),
			"-alerts-out", art("alerts.json"), "-perf-out", art("perf.json"))
	}
	cases := []struct {
		name string
		dir  string
		args []string
		// pre runs before the command (to generate inputs).
		pre func(t *testing.T)
		// stdin, when set, names the file fed to the command's stdin.
		stdin string
		// want, when set, must appear in the output.
		want string
		// fail expects a non-zero exit.
		fail bool
	}{
		{name: "heroserve-list", dir: "cmd/heroserve", args: []string{"-list"}},
		{name: "heroserve-fig1", dir: "cmd/heroserve", args: []string{"-exp", "fig1"}},
		{name: "heroserve-fig2-csv", dir: "cmd/heroserve", args: []string{"-exp", "fig2", "-format", "csv"}},
		{name: "planner", dir: "cmd/planner", args: []string{"-model", "opt-13b", "-rate", "1"}},
		{name: "tracegen", dir: "cmd/tracegen", args: []string{"-n", "5", "-rate", "2", "-stats"}},
		{name: "topoviz", dir: "cmd/topoviz", args: []string{"-topology", "testbed"}},
		{name: "serve", dir: "cmd/serve", args: []string{"-trace", traceFile, "-model", "opt-13b"}, pre: writeTrace},
		{name: "hstat-trace", dir: "cmd/hstat", args: []string{"trace", "-top", "3", art("spans.json")},
			pre: writeArtefacts, want: "critical-path breakdown"},
		{name: "hstat-decisions", dir: "cmd/hstat", args: []string{"decisions", art("decisions.json")},
			pre: writeArtefacts, want: "decision ledger:"},
		{name: "hstat-alerts", dir: "cmd/hstat", args: []string{"alerts", "-summary", art("alerts.json")},
			pre: writeArtefacts, want: "rules armed"},
		{name: "hstat-perf", dir: "cmd/hstat", args: []string{"perf", art("perf.json")},
			pre: writeArtefacts, want: "wall-seconds per sim-second"},
		{name: "hstat-diff", dir: "cmd/hstat", args: []string{"trace", "-diff", art("spans.json"), art("spans.json")},
			pre: writeArtefacts, want: "delta +0.000000s"},
		{name: "hstat-stdin", dir: "cmd/hstat", args: []string{"decisions", "-tsv", "-"},
			pre: writeArtefacts, stdin: art("decisions.json"), want: "scheme"},
		{name: "hstat-wrong-artefact", dir: "cmd/hstat", args: []string{"alerts", art("decisions.json")},
			pre: writeArtefacts, want: `unknown field "fleet"`, fail: true},
		{name: "hstat-bad-usage", dir: "cmd/hstat", args: []string{"perf", "-top", "3", art("perf.json")},
			pre: writeArtefacts, want: "usage: hstat", fail: true},
		{name: "example-quickstart", dir: "examples/quickstart"},
		{name: "example-chatbot", dir: "examples/chatbot"},
		{name: "example-summarization", dir: "examples/summarization"},
		{name: "example-inaswitch", dir: "examples/inaswitch"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if c.pre != nil {
				c.pre(t)
			}
			out, err := runCmd(t, c.stdin, c.dir, c.args...)
			if (err != nil) != c.fail {
				t.Fatalf("go run ./%s %v: err %v, want failure %v\n%s", c.dir, c.args, err, c.fail, out)
			}
			if len(out) == 0 {
				t.Fatalf("%s produced no output", c.name)
			}
			if !strings.Contains(out, c.want) {
				t.Errorf("%s output lacks %q:\n%s", c.name, c.want, out)
			}
		})
	}
}
