package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// envInfo records where a run was taken.
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	DataFS     string `json:"data_fs"` // filesystem type under durable_put's D
}

func readEnv(dataRoot string) envInfo {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease") // best effort: a label, not a measurement
	return envInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     strings.TrimSpace(string(kernel)),
		DataFS:     fsType(dataRoot),
	}
}

// fsNames maps statfs magic numbers to names, for the filesystems a data dir
// is likely to sit on.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x01021994: "tmpfs",
	0x858458F6: "ramfs",
}

// fsType names the filesystem holding dir ("" if dir does not exist yet).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return ""
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// refuseRAMFS rejects a data root on a RAM filesystem: fsync there returns
// without doing the work durable_put exists to measure.
func refuseRAMFS(dir string) error {
	if t := fsType(dir); t == "tmpfs" || t == "ramfs" {
		return fmt.Errorf("data root %s is on %s: durable_put needs a filesystem whose fsync reaches a device", dir, t)
	}
	return nil
}
