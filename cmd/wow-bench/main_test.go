package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

// TestRegistryNamesMatchHelp: every -run name is unique, and the names the
// -help text lists are exactly the registry's, in execution order.
func TestRegistryNamesMatchHelp(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range registry {
		if seen[e.name] || e.name == "all" {
			t.Errorf("registry name %q is duplicated or reserved", e.name)
		}
		seen[e.name] = true
		if e.title == "" || e.run == nil {
			t.Errorf("registry entry %q lacks a title or a run function", e.name)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-help"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-help exited %d, want 0", code)
	}
	m := regexp.MustCompile(`comma-separated experiments: (\S+)`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("-help does not list the experiments:\n%s", stderr.String())
	}
	if got, want := m[1], strings.Join(names(), ","); got != want {
		t.Errorf("-run help lists %q, registry has %q", got, want)
	}
	if stdout.Len() != 0 {
		t.Errorf("-help wrote to stdout: %q", stdout.String())
	}
}

func TestUnknownExperimentExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "virt,nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown experiment "nope"`) {
		t.Errorf("stderr does not name the unknown experiment: %q", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("an unknown name still ran something: %q", stdout.String())
	}
}

// TestJSONModeWritesOnlyEnvelopes: in -json mode stdout carries one
// {experiment, seed, data} object per line and nothing else — section
// headers and wall times go to stderr.
func TestJSONModeWritesOnlyEnvelopes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "virt", "-json", "-seed", "4"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if strings.Count(out, "\n") != 1 || !strings.HasSuffix(out, "\n") {
		t.Fatalf("stdout is not exactly one line: %q", out)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal([]byte(out), &env); err != nil {
		t.Fatalf("stdout line is not a JSON object: %v\n%s", err, out)
	}
	if len(env) != 3 || string(env["experiment"]) != `"virt"` || string(env["seed"]) != "4" {
		t.Errorf("envelope %s, want exactly experiment=virt, seed=4 and data", out)
	}
	var data struct{ OverheadPct float64 }
	if err := json.Unmarshal(env["data"], &data); err != nil || data.OverheadPct <= 0 {
		t.Errorf("data %s does not carry the virt result (err %v)", env["data"], err)
	}
	if !strings.Contains(stderr.String(), "==== §V-D1: virtualization overhead ====") {
		t.Errorf("narration did not move to stderr: %q", stderr.String())
	}
}
