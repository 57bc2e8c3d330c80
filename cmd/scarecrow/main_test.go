package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"scarecrow/internal/analysis"
	"scarecrow/internal/core"
	"scarecrow/internal/trace"
	"scarecrow/internal/winsim"
)

// TestMain lets a test re-execute this test binary as the scarecrow
// command itself, flags and all.
func TestMain(m *testing.M) {
	if os.Getenv("SCARECROW_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestResolveSamples(t *testing.T) {
	known := []string{"wannacry", "locky", "kasidet", "scaware", "spawner", "joe:cbdda64", "mg:mg0000"}
	for _, name := range known {
		if _, err := resolve(name); err != nil {
			t.Errorf("resolve(%q): %v", name, err)
		}
	}
	for _, name := range []string{"", "nope", "joe:zzz", "mg:zzz"} {
		if _, err := resolve(name); err == nil {
			t.Errorf("resolve(%q) accepted", name)
		}
	}
}

// TestTraceIsTheReportedRun: -trace archives the protected run whose
// verdict the command prints — the same machine seed and the same
// config-extended deception database — so the dumped events condense to
// exactly the reported protected summary. joe:9fac72a is used because
// the config's hardware answers change its protected trace, and -seed is
// non-zero so the lab seed and the machine seed differ.
func TestTraceIsTheReportedRun(t *testing.T) {
	dir := t.TempDir()
	configPath := filepath.Join(dir, "deploy.json")
	config := `{"hardware": {"ram_mb": 16384, "num_cores": 8, "disk_total_gb": 1000, "disk_free_gb": 500}}`
	if err := os.WriteFile(configPath, []byte(config), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "trace.jsonl")
	cmd := exec.Command(os.Args[0], "-sample", "joe:9fac72a", "-profile", "end-user",
		"-seed", "7", "-config", configPath, "-trace", tracePath)
	cmd.Env = append(os.Environ(), "SCARECROW_RUN_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("scarecrow: %v\n%s", err, out)
	}

	// The reported run, rebuilt from the same flags.
	spec, err := resolve("joe:9fac72a")
	if err != nil {
		t.Fatal(err)
	}
	fc, err := core.LoadConfigFile(configPath)
	if err != nil {
		t.Fatal(err)
	}
	db := core.NewDB()
	lab := &analysis.Lab{
		Profile: winsim.ProfileEndUser,
		Seed:    7,
		Config:  fc.Apply(core.RecommendedConfig(string(winsim.ProfileEndUser)), db),
		DB:      db,
	}
	res := lab.RunSampleSeeded(spec, 7^1)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if want := "with scarecrow:    " + res.BehaviourWith(); !strings.Contains(string(out), want) {
		t.Fatalf("output does not report the rebuilt run (%q):\n%s", want, out)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	if got := trace.Summarize(events); !reflect.DeepEqual(got, res.Protected.Summary) {
		t.Errorf("trace is not the reported protected run:\ndumped:   %+v\nreported: %+v", got, res.Protected.Summary)
	}
}
