package main

import (
	"fmt"
	"time"

	"leishen/internal/analysis"
)

// LintResult is the BENCH_lint.json schema: how long the static-analysis
// gate takes, split per analyzer, so a new analyzer that regresses
// `make lint` wall-time shows up in the bench artifacts.
type LintResult struct {
	// Patterns is the package set measured.
	Patterns []string `json:"patterns"`
	Packages int      `json:"packages"`
	// LoadMillis is the one-time parse/type-check cost (shared by all
	// analyzers; dominated by type-checking the stdlib from source).
	LoadMillis float64 `json:"load_ms"`
	// Analyzers carries the best-of-rounds wall time of each analyzer
	// over the loaded packages, in suite order.
	Analyzers []LintTiming `json:"analyzers"`
	// TotalMillis sums the per-analyzer figures — the serial analysis
	// cost after loading.
	TotalMillis float64 `json:"total_ms"`
	Findings    int     `json:"findings"`
	Rounds      int     `json:"rounds"`
}

// LintTiming is one analyzer's row.
type LintTiming struct {
	Name     string  `json:"name"`
	Millis   float64 `json:"millis"`
	Findings int     `json:"findings"`
}

// benchLint loads the pattern set once — the whole module, or under
// -smoke one small leaf package, sparing the whole-module type check —
// and times each suite analyzer over it, best of the timed rounds.
func benchLint(smoke bool) (result, error) {
	patterns := []string{"./..."}
	if smoke {
		patterns = []string{"./internal/uint256"}
	}
	res := &LintResult{Patterns: patterns, Rounds: timedRounds(smoke)}

	start := time.Now()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.Match(patterns)
	if err != nil {
		return nil, err
	}
	res.LoadMillis = time.Since(start).Seconds() * 1e3
	res.Packages = len(pkgs)

	for _, a := range analysis.Suite() {
		var best float64
		findings := 0
		for r := 0; r < res.Rounds; r++ {
			t0 := time.Now()
			diags := analysis.Run(pkgs, []*analysis.Analyzer{a})
			sec := time.Since(t0).Seconds()
			findings = len(diags)
			if best == 0 || sec < best {
				best = sec
			}
		}
		res.Analyzers = append(res.Analyzers, LintTiming{Name: a.Name, Millis: best * 1e3, Findings: findings})
		res.TotalMillis += best * 1e3
		res.Findings += findings
	}
	return res, nil
}

func (r *LintResult) summary() string {
	return fmt.Sprintf("%d package(s) loaded in %.0f ms, %d analyzers in %.1f ms, %d finding(s)",
		r.Packages, r.LoadMillis, len(r.Analyzers), r.TotalMillis, r.Findings)
}
