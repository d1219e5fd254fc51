package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/transport"
)

const (
	// clients is the closed loop's connection count, the host's core count.
	clients = 2
	// resultTol bounds max|got − ref| ÷ max|ref| for a served MTTKRP. The
	// served kernel and core.Naive sum in different orders.
	resultTol = 1e-10
	httpMode  = 1
)

// httpDense is a closed loop of full-payload dense MTTKRP requests over
// loopback HTTP to an in-process transport.Server. Factor sets rotate
// round-robin so no two consecutive batches share a KRP.
type httpDense struct {
	x      *tensor.Dense
	sets   [][]mat.View
	refs   [][]float64 // core.Naive per factor set
	srv    *transport.Server
	served chan error
	hc     *http.Client
	client *transport.Client
	next   atomic.Int64

	// Sums over the last window's succeeded requests.
	decode, compute, total time.Duration
	okCount                int
	bytesIn, requests      int64
}

func (w *httpDense) setup(c *config) (time.Duration, error) {
	w.close()
	start := time.Now()
	rng := rand.New(rand.NewSource(c.seed))
	w.x = tensor.Random(rng, c.sizes.http...)
	w.sets = make([][]mat.View, c.sizes.httpSets)
	for i := range w.sets {
		w.sets[i] = randFactors(rng, c.sizes.http, c.sizes.httpRank)
	}
	gen := time.Since(start)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	w.srv = transport.NewServer(transport.Config{Serve: serve.Config{Workers: 2}})
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(l) }()
	w.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}}
	w.client = transport.NewClient("http://" + l.Addr().String())
	w.client.HTTPClient = w.hc

	// Warm-up: every factor set once, from both connections.
	err = w.loop(func(dst mat.View) (bool, error) {
		i := int(w.next.Add(1))
		if i > len(w.sets) {
			return false, nil
		}
		_, _, err := w.client.MTTKRP(dst, w.x, w.sets[i-1], httpMode, core.MethodAuto)
		return err == nil, err
	})
	w.next.Store(0)
	return gen, err
}

// loop runs body on one goroutine per client connection, each with its
// own result buffer, until body returns false, and returns the first
// error a body returned.
func (w *httpDense) loop(body func(dst mat.View) (more bool, err error)) error {
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		go func() {
			dst := mat.NewDense(w.x.Dim(httpMode), w.sets[0][0].C)
			for {
				more, err := body(dst)
				if err != nil || !more {
					errs <- err
					return
				}
			}
		}()
	}
	var first error
	for g := 0; g < clients; g++ {
		if err := <-errs; first == nil {
			first = err
		}
	}
	return first
}

func randFactors(rng *rand.Rand, dims []int, rank int) []mat.View {
	u := make([]mat.View, len(dims))
	for k, d := range dims {
		u[k] = mat.NewDense(d, rank)
		u[k].Randomize(rng)
	}
	return u
}

func (w *httpDense) facts(c *config) {
	h := &transport.Header{Op: transport.OpMTTKRP, Mode: httpMode, Rank: c.sizes.httpRank, Dims: w.x.Dims()}
	c.printf("# workload: tensor %v rank %d mode %d, %d factor sets, %d closed-loop connections, 2 server workers; %s per request\n",
		w.x.Dims(), c.sizes.httpRank, httpMode, len(w.sets), clients, mib(float64(h.WireSize())))
	c.printf("# computed per request: %.4f GFLOP, %.4f GB moved by the kernel, working set %s\n",
		mttkrpFlops(w.x.Dims(), c.sizes.httpRank)/1e9, mttkrpBytes(w.x.Dims(), c.sizes.httpRank, httpMode)/1e9,
		mib(8*float64(w.x.Size())+factorBytes(w.x.Dims(), c.sizes.httpRank)))
}

func (w *httpDense) reference(c *config) error {
	w.refs = make([][]float64, len(w.sets))
	for i, u := range w.sets {
		w.refs[i] = flat(core.Naive(w.x, u, httpMode))
	}
	return nil
}

func (w *httpDense) measure(c *config, d time.Duration, tr *tracer) (*window, error) {
	win := &window{unit: "request"}
	var mu sync.Mutex
	w.decode, w.compute, w.total, w.okCount = 0, 0, 0, 0
	before := w.srv.Stats()
	start := time.Now()
	err := w.loop(func(dst mat.View) (bool, error) {
		if time.Since(start) >= d {
			return false, nil
		}
		n := w.next.Add(1)
		set := int(n % int64(len(w.sets)))
		id := tr.begin("transport.Client.MTTKRP", 0, n)
		m, tm, err := w.client.MTTKRP(dst, w.x, w.sets[set], httpMode, core.MethodAuto)
		tr.end(id)
		ok := err == nil
		if ok {
			got := dst.Data[:m.R*m.C]
			if c.tamper != nil {
				got = append([]float64(nil), got...)
				c.tamper(int(n), got)
			}
			ok = relErr(got, w.refs[set]) <= resultTol
		}
		mu.Lock()
		defer mu.Unlock()
		win.attempted++
		if !ok {
			win.failed++
			return true, nil
		}
		win.lat = append(win.lat, tm.Total)
		w.decode += tm.Decode
		w.compute += tm.Compute
		w.total += tm.Total
		w.okCount++
		return true, nil
	})
	win.elapsed = time.Since(start)
	after := w.srv.Stats()
	w.bytesIn, w.requests = after.BytesIn-before.BytesIn, after.Requests-before.Requests
	c.printf("# check: every response vs core.Naive within relative %g\n", resultTol)
	return win, err
}

func (w *httpDense) layers(c *config, tr *tracer, r *result) {
	n := float64(max(w.okCount, 1))
	dec, comp, tot := ms(w.decode)/n, ms(w.compute)/n, ms(w.total)/n
	r.set("transport.decode_ms", dec)
	r.set("transport.compute_ms", comp)
	r.set("transport.unattributed_ms", tot-dec-comp)
	r.set("transport.round_trip_mean_ms", tot)
	r.set("transport.bytes_in_per_req", float64(w.bytesIn)/float64(max(w.requests, 1)))
	c.printf("# mean round trip %.4f ms = decode %.4f + compute %.4f + unattributed %.4f ms\n", tot, dec, comp, tot-dec-comp)

	minT := c.sizes.replay
	dims, rank := w.x.Dims(), c.sizes.httpRank
	u := w.sets[0]
	pool := parallel.NewPool(2)
	defer pool.Close()

	// blas: the request's Figure 5 baseline GEMM shape.
	other := prod(dims) / dims[httpMode]
	rng := rand.New(rand.NewSource(c.seed))
	a, b := mat.NewColMajor(dims[httpMode], other), mat.NewColMajor(other, rank)
	a.Randomize(rng)
	b.Randomize(rng)
	cm := mat.NewDense(dims[httpMode], rank)
	r.set("blas.gemm_request_us", us(replay(tr, "blas.Gemm", minT, func() { blas.Gemm(2, 1, a, b, 0, cm) })))

	dst := mat.NewDense(dims[httpMode], rank)
	kernel := replay(tr, "core.ComputeInto", minT, func() {
		core.ComputeInto(dst, core.MethodAuto, w.x, u, httpMode, core.Options{Threads: 2, Pool: pool})
	})
	r.set("core.request_us", us(kernel))
	r.set("parallel.region_us", regionUS(tr, pool, minT))

	// serve: a lone request's submit→done on an idle scheduler, less the
	// kernel it runs.
	sched := serve.New(serve.Config{Workers: 2})
	defer sched.Close()
	i := 0
	lone := replay(tr, "serve.Server.SubmitMTTKRP", minT, func() {
		i++
		tk := sched.SubmitMTTKRP(serve.MTTKRPRequest{X: w.x, Factors: w.sets[i%len(w.sets)], Mode: httpMode, Dst: dst})
		_, err := tk.MTTKRP()
		must(err)
	})
	r.set("serve.overhead_us", us(lone-kernel))

	// transport: the wire codec alone, from and to memory.
	h := &transport.Header{Op: transport.OpMTTKRP, Mode: httpMode, Rank: rank, Dims: dims}
	r.set("transport.encode_request_us", us(replay(tr, "transport.WriteRequest", minT, func() {
		must(transport.WriteRequest(io.Discard, h, w.x, u))
	})))
	var wire bytes.Buffer
	must(transport.WriteRequest(&wire, h, w.x, u))
	buf := make([]float64, h.PayloadFloats())
	scratch := make([]byte, 64<<10)
	r.set("transport.decode_request_us", us(replay(tr, "transport.DecodeRequest", minT, func() {
		rd := bytes.NewReader(wire.Bytes())
		hh, err := transport.ReadHeader(rd)
		must(err)
		_, _, err = transport.DecodeRequest(rd, hh, buf, scratch)
		must(err)
	})))
	var resp bytes.Buffer
	r.set("transport.response_us", us(replay(tr, "transport.WriteMatrix", minT, func() {
		resp.Reset()
		must(transport.WriteMatrix(&resp, dst, scratch))
		_, err := transport.ReadMatrixInto(&resp, cm, 0)
		must(err)
	})))
}

// regionUS is the median time of one empty Pool.Run(2, …) on a warm pool.
func regionUS(tr *tracer, pool *parallel.Pool, minT time.Duration) float64 {
	const regions = 100
	body := func(int) {}
	return us(replay(tr, "parallel.Pool.Run", minT, func() {
		for i := 0; i < regions; i++ {
			pool.Run(2, body)
		}
	})) / regions
}

// must panics on an error from a call whose inputs the benchmark built
// itself, where an error can only mean a defect.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func (w *httpDense) close() {
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = w.srv.Shutdown(ctx) // a failed drain still ends the run; the window is already measured
		cancel()
		<-w.served // Serve returns once Shutdown has closed the listener
		w.hc.CloseIdleConnections()
	}
	w.srv = nil
}
