package main

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTimes is the host-wide first line of /proc/stat, in clock ticks.
type cpuTimes struct{ total, idle, steal uint64 }

func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var c cpuTimes
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		if i <= 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			c.total += v
		}
		switch i {
		case 4, 5:
			c.idle += v
		case 8:
			c.steal = v
		}
	}
	return c
}

// envRecord describes where a run executed, so that a noisy host can be told
// apart from a slow program.
type envRecord struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	DataDirFS  string  `json:"data_dir_fs"`
	TmpDirFS   string  `json:"tmpdir_fs"`
	StealFrac  float64 `json:"host_steal_frac"`
	IdleFrac   float64 `json:"host_idle_frac"`
}

func newEnvRecord(dataDir, tmpDir string, before, after cpuTimes) envRecord {
	r := envRecord{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		DataDirFS:  fsType(dataDir),
		TmpDirFS:   fsType(tmpDir),
	}
	if dt := after.total - before.total; dt > 0 {
		r.StealFrac = float64(after.steal-before.steal) / float64(dt)
		r.IdleFrac = float64(after.idle-before.idle) / float64(dt)
	}
	return r
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

func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	default:
		return "0x" + strconv.FormatUint(uint64(st.Type), 16)
	}
}

// maxRSSMB is this process's peak resident set so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuTime is the user plus system CPU time this process has used. Time the
// hypervisor steals from the guest is not charged to it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// wchar is the bytes this process has passed to write-like system calls.
func wchar() uint64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar:"); ok {
			n, _ := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// runtimeSample holds the allocation and CPU counters that bracket a timed
// region of the in-process workloads.
type runtimeSample struct {
	allocBytes    uint64
	gcCPU, allCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		allCPU:     s[2].Value.Float64(),
	}
}

// allocMBPerOp and gcCPUFrac summarize a timed region from two samples.
func (a runtimeSample) allocMBPerOp(b runtimeSample, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(b.allocBytes-a.allocBytes) / (1 << 20) / float64(ops)
}

func (a runtimeSample) gcCPUFrac(b runtimeSample) float64 {
	if d := b.allCPU - a.allCPU; d > 0 {
		return (b.gcCPU - a.gcCPU) / d
	}
	return 0
}

// dirMB is the total size of the regular files under dir.
func dirMB(dir string) float64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total) / (1 << 20)
}
