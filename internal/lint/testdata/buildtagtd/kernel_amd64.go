package buildtagtd

// fast is declared here and in kernel_other.go; only one of the two files
// is in any build.
const fast = true

func kernel(x int) int { return x }
