package p

func kernel() int { return 1 }
