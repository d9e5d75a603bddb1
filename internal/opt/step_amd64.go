//go:build amd64

package opt

// adamStepAsm is the SSE2 two-wide Adam update in step_amd64.s. It applies
// exactly the per-element operation sequence of adamStepGo; packed IEEE
// ops are correctly rounded per lane, so results are bit-identical
// (TestAdamStepAsmMatchesGo pins this).
//
//go:noescape
func adamStepAsm(w, grad, m, v *float64, n int, c *adamConsts)

func adamStep(w, g, m, v []float64, c *adamConsts) {
	if len(w) == 0 {
		return
	}
	adamStepAsm(&w[0], &g[0], &m[0], &v[0], len(w), c)
}
