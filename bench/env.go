package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// fsMagic names the filesystems a data dir is likely to sit on.
var fsMagic = map[int64]string{
	0x01021994: "tmpfs",
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
}

// fsName reports the filesystem type holding path.
func fsName(path string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", path, err)
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name, nil
	}
	return fmt.Sprintf("0x%x", st.Type), nil
}

// rmemMax is the kernel's cap on SO_RCVBUF; collectord asks for 8 MiB
// and logs what it was granted.
func rmemMax() string {
	data, err := os.ReadFile("/proc/sys/net/core/rmem_max")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// environment is the machine context recorded with every trajectory row.
type environment struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	RmemMax   string `json:"rmem_max"`
	DataFS    string `json:"data_fs"`
	Commit    string `json:"commit"`
}

func readEnvironment(root, dir string) (environment, error) {
	fs, err := fsName(dir)
	if err != nil {
		return environment{}, err
	}
	env := environment{
		NProc:     runtime.NumCPU(),
		GoVersion: runtime.Version(),
		RmemMax:   rmemMax(),
		DataFS:    fs,
		Commit:    "unknown", // the driver's checkout is not a git repository
	}
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env, nil
}

// logEnvironment pins the harness to the machine shape the workloads
// were sized for and says what the numbers do and do not describe.
func logEnvironment(r *run) error {
	// Two workers, one sender and two query connections are sized for
	// the 2-core box; more threads here would only add scheduler noise.
	runtime.GOMAXPROCS(2)
	env, err := readEnvironment(r.sb.root, r.sb.dir)
	if err != nil {
		return err
	}
	r.note("nproc=%d go=%s rmem_max=%s data-dir filesystem=%s commit=%s",
		env.NProc, env.GoVersion, env.RmemMax, env.DataFS, env.Commit)
	r.note("all traffic crossed loopback; fsync figures are this VM's virtual disk, not a device's")
	return nil
}
