package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"leishen/internal/world"
)

func names(benches []bench) []string {
	var out []string
	for _, b := range benches {
		out = append(out, b.name)
	}
	return out
}

func TestSelectBenches(t *testing.T) {
	all, err := selectBenches(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"scan", "archive", "lint", "serve", "metrics", "fault"}
	if got := names(all); !slices.Equal(got, want) {
		t.Fatalf("no names selected %v, want %v", got, want)
	}

	some, err := selectBenches([]string{"serve", "scan"})
	if err != nil {
		t.Fatal(err)
	}
	if got := names(some); !slices.Equal(got, []string{"serve", "scan"}) {
		t.Fatalf("selected %v, want [serve scan]", got)
	}

	for _, tc := range []struct {
		args []string
		want []string // substrings of the error
	}{
		{[]string{"scna"}, append([]string{`unknown bench "scna"`}, want...)},
		{[]string{"lint", "fault", "lint"}, []string{`bench "lint" named twice`}},
	} {
		_, err := selectBenches(tc.args)
		if err == nil {
			t.Fatalf("%v: no error", tc.args)
		}
		for _, sub := range tc.want {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%v: error %q does not mention %q", tc.args, err, sub)
			}
		}
	}
}

// probe records what a fake bench's gate saw.
type probe struct{ called, onDisk bool }

// fakeResult is a bench result whose gate fails on demand and records
// whether its own output file existed when the gate ran.
type fakeResult struct {
	Value int `json:"value"`

	fail  bool
	path  string
	probe *probe
}

func (f *fakeResult) summary() string { return "fake" }

func (f *fakeResult) gate(io.Writer) error {
	_, err := os.Stat(f.path)
	f.probe.called, f.probe.onDisk = true, err == nil
	if f.fail {
		return errors.New("fake gate failed")
	}
	return nil
}

func TestRunBenchesWritesBeforeGateAndRunsTheRest(t *testing.T) {
	dir := t.TempDir()
	probes := map[string]*probe{}
	fake := func(name string, fail bool) bench {
		p := &probe{}
		probes[name] = p
		return bench{name, func(bool) (result, error) {
			return &fakeResult{Value: 42, fail: fail, path: filepath.Join(dir, "BENCH_"+name+".json"), probe: p}, nil
		}}
	}
	broken := bench{"broken", func(bool) (result, error) { return nil, errors.New("run failed") }}

	err := runBenches([]bench{fake("red", true), broken, fake("green", false), fake("last", true)}, true, dir)
	if err == nil {
		t.Fatal("runBenches reported no failure")
	}
	msg := err.Error()
	for _, sub := range []string{"3 of 4", "red: gate: fake gate failed", "broken: run failed", "last: gate: fake gate failed"} {
		if !strings.Contains(msg, sub) {
			t.Errorf("error %q does not mention %q", msg, sub)
		}
	}
	if strings.Contains(msg, "green") {
		t.Errorf("error %q names the passing bench", msg)
	}
	for name, p := range probes {
		if !p.called || !p.onDisk {
			t.Errorf("%s: gate called %v, result on disk at gate time %v; want both", name, p.called, p.onDisk)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "BENCH_"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var got fakeResult
		if err := json.Unmarshal(raw, &got); err != nil || got.Value != 42 {
			t.Errorf("%s: written result %q (err %v)", name, raw, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_broken.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a bench that failed to run left a result file (stat err %v)", err)
	}
}

func TestScanGate(t *testing.T) {
	base := &ScanResult{Seed: 7, ScalePct: 2, Txs: 5963, SeqTxPerSec: 310_000}
	run := func(edit func(r *ScanResult)) *ScanResult {
		r := &ScanResult{Seed: 7, ScalePct: 2, Txs: 5963, SeqTxPerSec: 300_000, AllocsPerTx: 0.06, baseline: base}
		edit(r)
		return r
	}
	for _, tc := range []struct {
		name    string
		res     *ScanResult
		wantErr string // "" for a pass
		wantLog string
	}{
		{"within budget and floor", run(func(*ScanResult) {}), "", "scan gate: ok"},
		{"just above the floor", run(func(r *ScanResult) { r.SeqTxPerSec = 279_001 }), "", "scan gate: ok"},
		{"allocs over budget", run(func(r *ScanResult) { r.AllocsPerTx = 2.01 }), "2.010 allocs/tx exceeds budget 2.0", ""},
		{"below the floor", run(func(r *ScanResult) { r.SeqTxPerSec = 278_999 }), "below 90% of baseline 310000", ""},
		{"other seed", run(func(r *ScanResult) { r.Seed = 8; r.SeqTxPerSec = 1 }), "", "ran a different corpus"},
		{"other scale", run(func(r *ScanResult) { r.ScalePct = 1; r.SeqTxPerSec = 1 }), "", "ran a different corpus"},
		{"other tx count", run(func(r *ScanResult) { r.Txs = 5964; r.SeqTxPerSec = 1 }), "", "ran a different corpus"},
		{"missing baseline", run(func(r *ScanResult) { r.baseline = nil; r.SeqTxPerSec = 1 }), "", "no baseline at BENCH_scan.json"},
		{"allocs checked without a baseline", run(func(r *ScanResult) { r.baseline = nil; r.AllocsPerTx = 3 }), "exceeds budget", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log bytes.Buffer
			err := tc.res.gate(&log)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("gate failed: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("gate error %v, want one containing %q", err, tc.wantErr)
			}
			if !strings.Contains(log.String(), tc.wantLog) {
				t.Errorf("gate logged %q, want %q", log.String(), tc.wantLog)
			}
		})
	}
}

// TestScanGateReadsBaselineBeforeOverwrite runs the real scan bench
// through the driver with the output path equal to the baseline path,
// the `benchjson scan` default. The gate must judge the run against the
// file's old contents, not the result the driver just wrote over it.
// The corpus is an empty stand-in, so the run measures 0 tx/s.
func TestScanGateReadsBaselineBeforeOverwrite(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	saved := shared
	shared = &corpus{Config: world.Config{Seed: 7, ScalePct: 1}, Corpus: &world.Corpus{}}
	t.Cleanup(func() { shared = saved })

	old := ScanResult{Seed: 7, ScalePct: 1, Txs: 0, SeqTxPerSec: 1000}
	raw, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(scanBaseline, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	err = runBenches([]bench{{"scan", benchScan}}, true, ".")
	if err == nil || !strings.Contains(err.Error(), "scan: gate: seq throughput 0 tx/s is below 90% of baseline 1000 tx/s") {
		t.Fatalf("runBenches error %v, want the scan gate to fail against the old baseline", err)
	}
	raw, err = os.ReadFile(scanBaseline)
	if err != nil {
		t.Fatal(err)
	}
	var written ScanResult
	if err := json.Unmarshal(raw, &written); err != nil {
		t.Fatal(err)
	}
	if written.SeqTxPerSec != 0 || written.AllocsBudget != allocsBudget {
		t.Fatalf("written result %+v, want this run's figures", written)
	}
}
