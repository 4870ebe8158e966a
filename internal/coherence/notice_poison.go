//go:build !race

package coherence

// Poison mode is compiled out of regular builds: pooling costs nothing.

func poisonTake(*notice) {}

func poisonFree(*notice) {}
