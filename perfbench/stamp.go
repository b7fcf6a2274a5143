package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// stamp is the context every result is reported with.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
	Loop       string  `json:"loop"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	// StealShare and IOWaitShare are the machine's CPU time stolen by
	// the hypervisor and spent waiting on I/O during the measured
	// window, from /proc/stat: a run with a high share ran on a busy
	// host.
	StealShare  float64 `json:"cpu_steal_share"`
	IOWaitShare float64 `json:"cpu_iowait_share"`
}

func newStamp(w workload, seed uint64, window time.Duration, traced bool) stamp {
	s := stamp{
		Workload: w.name, Seed: seed, Trace: traced, Seconds: window.Seconds(),
		Clients:    clients,
		Loop:       "closed: each client sends its next request only after its reply",
		Commit:     commit(),
		SourceHash: sourceHash(),
		Go:         runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
	}
	if traced {
		s.Clients = 1
		s.Loop += "; the first half of the window runs 2 clients untraced, the second half 1 client tracing every other op"
	}
	return s
}

// commit is the checked-out git commit, or "unknown" when the working
// directory is not the root of a git checkout; source_sha256 identifies
// the code either way.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests the engine's and the benchmark's sources, relative
// to the working directory (the repository root).
func sourceHash() string {
	h := sha256.New()
	for _, root := range []string{"go.mod", "internal", "cmd", "perfbench"} {
		_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return nil
			}
			f, err := os.Open(path)
			if err != nil {
				return nil
			}
			defer f.Close()
			io.WriteString(h, path+"\x00")
			_, _ = io.Copy(h, f)
			return nil
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}

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

// cpuTimes reads the machine's aggregate CPU tick counters from
// /proc/stat; nil where unavailable.
func cpuTimes() []uint64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	out := make([]uint64, len(fields)-1)
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil
		}
		out[i] = v
	}
	return out
}

// shareOf returns the steal and iowait shares of the ticks between two
// cpuTimes readings.
func shareOf(before, after []uint64) (steal, iowait float64) {
	if before == nil || after == nil || len(before) != len(after) {
		return 0, 0
	}
	// Fields: user nice system idle iowait irq softirq steal, then
	// guest time, which user already counts.
	var total uint64
	d := make([]uint64, 8)
	for i := range d {
		d[i] = after[i] - before[i]
		total += d[i]
	}
	if total == 0 {
		return 0, 0
	}
	return float64(d[7]) / float64(total), float64(d[4]) / float64(total)
}
