//go:build race

package coherence

// Poison mode, enabled in -race builds: a notice whose record is back in the
// pool — its callback scheduled twice, or kept past its event — panics when it
// runs instead of acting on whatever (core, line) the record says next.

func poisonTake(n *notice) { n.live = true }

func poisonFree(n *notice) {
	if !n.live {
		panic("coherence: released notice run")
	}
	n.live = false
}
