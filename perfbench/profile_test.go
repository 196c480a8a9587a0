package main

import "testing"

// TestSelfProfileChargesLayer profiles the sim dispatch probe and checks
// that the decoded profile charges its CPU time to the sim layer.
func TestSelfProfileChargesLayer(t *testing.T) {
	p := newSelfProfile()
	if err := p.start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		dispatch(2000, 1_000_000)
	}
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range p.ns {
		total += ns
	}
	if total == 0 {
		t.Fatal("profile holds no samples")
	}
	if share := float64(p.ns["sim"]) / float64(total); share < 0.5 {
		t.Fatalf("sim share %.2f of %v, want most of it", share, p.ns)
	}
}
