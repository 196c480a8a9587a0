package core

import (
	"repro/internal/experiment"
	"repro/internal/scenario"
)

// Scenario is a declarative experiment specification parsed from a
// scenario file (alias of scenario.Spec): topology, flows, impairments,
// and a retuning schedule, compiled to run configurations with
// Scenario.RunConfig. See docs/SCENARIOS.md for the file format.
type Scenario = scenario.Spec

// ChaosOptions configures a seed-derived chaos campaign (alias of
// scenario.ChaosConfig).
type ChaosOptions = scenario.ChaosConfig

// CampaignReport is a chaos campaign's aggregated invariant verdicts
// (alias of scenario.CampaignReport); render it with gsreport -invariants.
type CampaignReport = scenario.CampaignReport

// LoadScenario parses a scenario file from disk.
func LoadScenario(path string) (*Scenario, error) { return scenario.Load(path) }

// RunScenario executes one iteration of a parsed scenario, through the
// cache when one is given.
func RunScenario(sp *Scenario, iteration int, cache *RunCache) Result {
	rr, hit := experiment.RunCached(cache, sp.RunConfig(iteration))
	return Result{RunResult: rr, Cached: hit}
}

// RunChaos executes a seed-derived chaos campaign, checking every run
// against the metamorphic invariant suite.
func RunChaos(opts ChaosOptions) (*CampaignReport, error) { return scenario.RunChaos(opts) }

// SaveCampaignReport writes a campaign report as JSON for gsreport.
func SaveCampaignReport(path string, rep *CampaignReport) error {
	return scenario.SaveReport(path, rep)
}
