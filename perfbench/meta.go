package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// campaignWorkers is the warm passes' gscampaign -workers value: one worker
// process per CPU. The coordinator waits for its workers before sweeping up
// in-process, so this caps concurrent processes at nproc.
func campaignWorkers() int { return max(1, runtime.NumCPU()) }

// runMeta records what two sets of runs must share to be compared: the
// source they were built from, the toolchain, and the parallelism.
func runMeta(root, workload string, e *env) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"workload":      workload,
		"seed":          e.seed,
		"seconds":       e.seconds,
		"trace":         e.trace,
		"commit":        commit,
		"source_sha256": sourceDigest(root),
		"go_version":    runtime.Version(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"workers":       e.workers,
		"cold_workers":  coldWorkers,
	}
}

// sourceDigest hashes go.mod and every .go file outside the build and
// benchmark directories, in path order. It identifies the program under
// test when the checkout carries no git metadata.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			if rel == ".bench_build" || rel == "perfbench" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if rel == "go.mod" || strings.HasSuffix(rel, ".go") {
			paths = append(paths, rel)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, rel := range paths {
		f, err := os.Open(filepath.Join(root, rel))
		if err != nil {
			continue
		}
		io.WriteString(h, rel+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB is the peak resident set of this process, plus the largest
// waited-for child when children is set (getrusage reports the maximum over
// children, not their sum).
func peakRSSMB(children bool) float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	kb := self.Maxrss
	if children {
		_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
		kb += kids.Maxrss
	}
	return float64(kb) / 1024
}
