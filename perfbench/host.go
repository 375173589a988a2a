package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// host describes where a run was measured. A worker count above nproc
// measures oversubscription, not scaling, so such a run is flagged as not
// comparable with runs on larger hosts.
type host struct {
	NProc         int            `json:"nproc"`
	CPUModel      string         `json:"cpu_model"`
	GOMAXPROCS    int            `json:"gomaxprocs"`
	GoVersion     string         `json:"go_version"`
	Commit        string         `json:"commit"`
	SourceDigest  string         `json:"source_digest"`
	Workers       map[string]int `json:"workers"`
	NotComparable []string       `json:"not_comparable"`
}

func hostInfo(workers map[string]int) host {
	h := host{
		NProc:         runtime.NumCPU(),
		CPUModel:      cpuModel(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Commit:        commit(),
		SourceDigest:  sourceDigest("."),
		Workers:       workers,
		NotComparable: []string{},
	}
	for name, n := range workers {
		if n > h.NProc {
			h.NotComparable = append(h.NotComparable, name)
		}
	}
	sort.Strings(h.NotComparable)
	return h
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary, or "unknown" when it
// was built outside a git checkout.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// sourceDigest hashes the program's Go sources and go.mod under root, the
// benchmark's own directory and build output excluded, so runs of the same
// code can be matched when no commit is stamped.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "perfbench":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
