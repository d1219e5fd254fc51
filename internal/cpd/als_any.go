package cpd

import (
	"fmt"

	"repro/internal/tensor"
)

// ALSAny computes a CP decomposition of a tensor of either layout,
// dispatching on it: dense tensors run the paper's ALS exactly as ALS
// does; sparse tensors run the same sweep structure over the sparse MTTKRP
// kernel. It is the shape-generic entry point repro.CP calls.
func ALSAny(x tensor.Interface, cfg Config) (*Result, error) {
	switch xt := x.(type) {
	case *tensor.Dense:
		return ALS(xt, cfg)
	case *tensor.Sparse:
		return alsSparse(xt, cfg)
	}
	return nil, fmt.Errorf("cpd: unsupported tensor layout %v", x.Layout())
}

// alsSparse is ALS over the sparse MTTKRP kernel: the same sweep loop,
// update, normalization and fit bookkeeping as the dense path, with one
// sparse MTTKRP per mode. The two-pass sweep of the dense MethodAuto path
// contracts partial KRPs against dense tensor blocks and has no sparse
// form; Method is likewise dense-only (the sparse kernel is the one
// algorithm) except MethodNaive, which core.Run resolves to the densified
// reference.
func alsSparse(x *tensor.Sparse, cfg Config) (*Result, error) {
	cfg, k, err := prepare(x, cfg)
	if err != nil {
		return nil, err
	}
	return run(x, x.Norm(cfg.Threads), cfg, k, false), nil
}
