package nn

import "repro/internal/rng"

// This file is the model zoo. Two families:
//
//  1. Paper-exact architectures whose parameter counts match Table 1 of the
//     paper bit-for-bit: CIFARGNLeNet (89,834) and FEMNISTCNN (1,690,046).
//     They can be trained (slowly) end to end; no experiment runs them until
//     real CIFAR-10/FEMNIST data is available. The energy model's workloads
//     are the constants energy.CIFAR10Workload and energy.FEMNISTWorkload.
//  2. Scaled-down models (logistic regression, MLP) used by the simulator so
//     that 256-node experiments run on CPU-only machines while preserving
//     the paper's learning dynamics (see README.md).

// CIFARGNLeNet builds DecentralizePy's GN-LeNet for 3x32x32 inputs and 10
// classes: three 5x5 convolutions (32, 32, 64 channels, padding 2), each
// followed by GroupNorm(2 groups) + ReLU + 2x2 max-pooling, then a linear
// classifier over the 64*4*4 feature map. Parameter count: 89,834 — exactly
// the |x| the paper reports for CIFAR-10.
func CIFARGNLeNet(r *rng.RNG) *Network {
	conv1 := NewConv2D(3, 32, 32, 32, 5, 5, 2, r) // -> 32x32x32
	gn1 := NewGroupNorm(32, 32, 32, 2)
	relu1 := NewReLU(32 * 32 * 32)
	pool1 := NewMaxPool2D(32, 32, 32, 2) // -> 32x16x16
	conv2 := NewConv2D(32, 16, 16, 32, 5, 5, 2, r)
	gn2 := NewGroupNorm(32, 16, 16, 2)
	relu2 := NewReLU(32 * 16 * 16)
	pool2 := NewMaxPool2D(32, 16, 16, 2) // -> 32x8x8
	conv3 := NewConv2D(32, 8, 8, 64, 5, 5, 2, r)
	gn3 := NewGroupNorm(64, 8, 8, 2)
	relu3 := NewReLU(64 * 8 * 8)
	pool3 := NewMaxPool2D(64, 8, 8, 2) // -> 64x4x4
	fc := NewDense(64*4*4, 10, true, r)
	return New(conv1, gn1, relu1, pool1, conv2, gn2, relu2, pool2, conv3, gn3, relu3, pool3, fc)
}

// FEMNISTCNN builds the LEAF benchmark CNN for 1x28x28 inputs and 62
// classes: two 5x5 same-padded convolutions (32 and 64 channels) each with
// ReLU + 2x2 pooling, a 3136->512 linear layer with ReLU, and a 512->62
// classifier. Parameter count: 1,690,046 — exactly the |x| the paper
// reports for FEMNIST.
func FEMNISTCNN(r *rng.RNG) *Network {
	conv1 := NewConv2D(1, 28, 28, 32, 5, 5, 2, r) // -> 32x28x28
	relu1 := NewReLU(32 * 28 * 28)
	pool1 := NewMaxPool2D(32, 28, 28, 2) // -> 32x14x14
	conv2 := NewConv2D(32, 14, 14, 64, 5, 5, 2, r)
	relu2 := NewReLU(64 * 14 * 14)
	pool2 := NewMaxPool2D(64, 14, 14, 2) // -> 64x7x7
	fc1 := NewDense(64*7*7, 512, true, r)
	relu3 := NewReLU(512)
	fc2 := NewDense(512, 62, true, r)
	return New(conv1, relu1, pool1, conv2, relu2, pool2, fc1, relu3, fc2)
}

// LogisticRegression builds a single linear layer (multinomial logistic
// regression). It is the cheapest model that still exhibits the non-IID
// bias/mixing dynamics the paper studies.
func LogisticRegression(dim, classes int, r *rng.RNG) *Network {
	l := NewDense(dim, classes, true, r)
	l.glorot = true
	return New(l)
}

// MLP builds dim -> hidden... -> classes with ReLU between linear layers.
func MLP(dim int, hidden []int, classes int, r *rng.RNG) *Network {
	layers := make([]Layer, 0, 2*len(hidden)+1)
	in := dim
	for _, h := range hidden {
		layers = append(layers, NewDense(in, h, true, r), NewReLU(h))
		in = h
	}
	out := NewDense(in, classes, true, r)
	out.glorot = true
	return New(append(layers, out)...)
}
