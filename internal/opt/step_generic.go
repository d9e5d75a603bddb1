//go:build !amd64

package opt

func adamStep(w, g, m, v []float64, c *adamConsts) { adamStepGo(w, g, m, v, c) }
