package main

// cpuid executes the CPUID instruction (cpuid_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// cpuBrand assembles the processor brand string from CPUID leaves
// 0x80000002..0x80000004.
func cpuBrand() string {
	if max, _, _, _ := cpuid(0x80000000, 0); max < 0x80000004 {
		return ""
	}
	var b []byte
	for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
		a, bx, c, d := cpuid(leaf, 0)
		for _, r := range [4]uint32{a, bx, c, d} {
			b = append(b, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
		}
	}
	return string(b)
}
