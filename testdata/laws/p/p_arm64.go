package p

func kernel() int { return armOnly() }
