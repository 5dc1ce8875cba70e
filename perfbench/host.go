package main

import (
	"fmt"
	"runtime"
	"strings"
)

// printHost prints the host fingerprint of the run record.
func printHost(cfg config) {
	fmt.Printf("host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source-digest=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), orUnknown(cfg.commit), orUnknown(cfg.source))
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

// cpuModel returns the processor brand string, read with CPUID so the
// benchmark reads no file outside its checkout.
func cpuModel() string {
	return orUnknown(strings.TrimSpace(strings.TrimRight(cpuBrand(), "\x00")))
}
