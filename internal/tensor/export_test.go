package tensor

var kernel32Names = [...]string{kernel32Go: "go", kernel32SSE: "sse", kernel32AVX512: "avx512"}

// Kernels32 names the hidden-layer kernels this host runs, widest first:
// "avx512", "sse" and "go" on an AVX-512F amd64 host, "sse" and "go" on
// any other amd64 host, "go" elsewhere.
func Kernels32() []string {
	var names []string
	for _, k := range hostKernels32() {
		names = append(names, kernel32Names[k])
	}
	return names
}

// UseKernel32 makes MatMulTransBInto32 run the named kernel, one that
// Kernels32 lists, until the returned func restores the dispatched one, so
// a test can push a whole prediction through every kernel the host
// supports. Tests that call it must not run in parallel.
func UseKernel32(name string) (restore func()) {
	for _, k := range hostKernels32() {
		if kernel32Names[k] == name {
			prev := active32
			active32 = k
			return func() { active32 = prev }
		}
	}
	panic("tensor: this host has no " + name + " kernel")
}

var kernel64Names = [...]string{kernel64Go: "go", kernel64AVX512: "avx512"}

// Kernels64 names the f64 row kernels this host runs the training products
// on, widest first: "avx512" and "go" on an AVX-512F amd64 host, "go"
// elsewhere.
func Kernels64() []string {
	var names []string
	for _, k := range hostKernels64() {
		names = append(names, kernel64Names[k])
	}
	return names
}

// UseKernel64 makes MatMulInto, MatMulTransBInto and MatMulTransAAccum run
// the named kernel, one that Kernels64 lists, until the returned func
// restores the dispatched one, so a test can train through every kernel
// the host supports. Tests that call it must not run in parallel.
func UseKernel64(name string) (restore func()) {
	for _, k := range hostKernels64() {
		if kernel64Names[k] == name {
			prev := active64
			active64 = k
			return func() { active64 = prev }
		}
	}
	panic("tensor: this host has no " + name + " kernel")
}
