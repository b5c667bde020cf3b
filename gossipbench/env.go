package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// environment describes the host a run measured on. Values the kernel does
// not expose read "unknown".
type environment struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	L2          string `json:"l2"`
	L3          string `json:"l3"`
	Clocksource string `json:"clocksource"`
	THP         string `json:"thp"`
}

func collectEnv() environment {
	e := environment{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		L2:          "unknown",
		L3:          "unknown",
		Clocksource: sysValue("/sys/devices/system/clocksource/clocksource0/current_clocksource"),
		THP:         sysValue("/sys/kernel/mm/transparent_hugepage/enabled"),
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		switch sysValue(filepath.Join(d, "level")) {
		case "2":
			e.L2 = sysValue(filepath.Join(d, "size"))
		case "3":
			e.L3 = sysValue(filepath.Join(d, "size"))
		}
	}
	return e
}

// sysValue reads one kernel pseudo-file, trimmed.
func sysValue(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
