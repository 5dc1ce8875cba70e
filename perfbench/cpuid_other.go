//go:build !amd64

package main

// cpuBrand is unknown off amd64.
func cpuBrand() string { return "" }
