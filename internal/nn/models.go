package nn

import "repro/internal/rng"

// The simulator's models, small enough that 256-node experiments run on
// CPU-only machines while keeping the paper's learning dynamics (see
// README.md). The paper's CNNs enter only as the energy model's workloads,
// energy.CIFAR10Workload and energy.FEMNISTWorkload.

// LogisticRegression builds a single linear layer (multinomial logistic
// regression). It is the cheapest model that still exhibits the non-IID
// bias/mixing dynamics the paper studies.
func LogisticRegression(dim, classes int, r *rng.RNG) *Network {
	return newNetwork(r, dense{in: dim, out: classes, bias: true, glorot: true})
}

// MLP builds dim -> hidden... -> classes with ReLU between linear layers.
func MLP(dim int, hidden []int, classes int, r *rng.RNG) *Network {
	layers := make([]dense, 0, len(hidden)+1)
	for _, h := range hidden {
		layers = append(layers, dense{in: dim, out: h, bias: true, relu: true})
		dim = h
	}
	return newNetwork(r, append(layers, dense{in: dim, out: classes, bias: true, glorot: true})...)
}
