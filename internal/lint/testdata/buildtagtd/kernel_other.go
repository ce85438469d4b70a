//go:build !amd64

package buildtagtd

const fast = false

func kernel(x int) int { return x }
