package buildtagtd

// Twice returns 2*x through the kernel this build's GOARCH selects.
func Twice(x int) int { return kernel(x) + x }
