// Fixture for the arenaescape analyzer: arena-leased buffers escaping
// their region through fields, globals, channels and goroutines, next to
// the clean shapes the analyzer must stay silent on.
package arenafix

import "repro/internal/parallel"

type cache struct {
	buf  []float64
	ints []int
}

type pair struct{ a, b []float64 }

type pairHolder struct{ p pair }

var global []float64

var registry = map[string][]float64{}

func use(xs []float64) {}

func consume(xs []float64) {}

func badField(ws *parallel.Workspace, c *cache, n int) {
	ar := ws.Arena(0)
	buf := ar.Float64("x", n)
	c.buf = buf               // want `stored into struct field buf`
	c.ints = ar.Ints("ix", n) // want `stored into struct field ints`
}

func badGlobal(ws *parallel.Workspace, n int) {
	buf := ws.Arena(0).Float64("g", n)
	global = buf              // want `package-level variable global`
	registry["k"] = buf[:n/2] // want `package-level container registry`
}

func badChan(ws *parallel.Workspace, ch chan []float64, n int) {
	buf := ws.Arena(1).Float64("c", n)
	ch <- buf // want `sent on a channel`
}

func badGo(ws *parallel.Workspace, n int) {
	buf := ws.Arena(0).Float64("g", n)
	go consume(buf) // want `passed to a goroutine`
	go func() {
		use(buf) // want `captured by a goroutine`
	}()
}

func badWrap(ws *parallel.Workspace, h *pairHolder, n int) {
	buf := ws.Arena(0).Float64("w", n)
	h.p = pair{a: buf[:n/2]} // want `stored into struct field p`
}

func cleanLocalUse(ws *parallel.Workspace, n int) float64 {
	ar := ws.Arena(0)
	buf := ar.Float64("x", n)
	s := 0.0
	for _, v := range buf {
		s += v
	}
	return s
}

func cleanReassigned(ws *parallel.Workspace, c *cache, n int) {
	buf := ws.Arena(0).Float64("x", n)
	use(buf)
	buf = make([]float64, n)
	c.buf = buf // clean: buf was rebound to owned memory above
}

func cleanOwned(c *cache, n int) {
	own := make([]float64, n)
	c.buf = own // clean: never arena-backed
}
