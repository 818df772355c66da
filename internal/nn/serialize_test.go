package nn

import (
	"bytes"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// saved is net's parameter vector written in the parameter file format.
func saved(t *testing.T, net *Network) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := writeVector(&buf, net.Params()); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestCheckpointRoundTrip(t *testing.T) {
	src := MLP(6, []int{10}, 4, rng.New(1))
	params, err := readVector(saved(t, src))
	if err != nil {
		t.Fatal(err)
	}
	dst := MLP(6, []int{10}, 4, rng.New(99)) // different init
	dst.Use(params)
	ps := tensor.NewVector(src.ParamCount())
	pd := tensor.NewVector(dst.ParamCount())
	src.CopyParamsTo(ps)
	dst.CopyParamsTo(pd)
	for i := range ps {
		if ps[i] != pd[i] {
			t.Fatalf("param %d differs after load", i)
		}
	}
	// And forward passes agree.
	x := tensor.Vector{1, -1, 2, -2, 0.5, 0}
	a, b := src.Forward(x), dst.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("loaded network computes differently")
		}
	}
}

// A checkpoint carries no architecture: the receiving network refuses a
// parameter vector of another length.
func TestCheckpointWrongArchitecture(t *testing.T) {
	params, err := readVector(saved(t, LogisticRegression(4, 3, rng.New(2))))
	if err != nil {
		t.Fatal(err)
	}
	dst := LogisticRegression(5, 3, rng.New(3))
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched parameter count must be rejected")
		}
	}()
	dst.Use(params)
}

func TestCheckpointCorruption(t *testing.T) {
	data := saved(t, LogisticRegression(4, 3, rng.New(4))).Bytes()
	data[20] ^= 0xff // flip a param byte
	if _, err := readVector(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupted checkpoint must fail the crc")
	}
}

// TestCheckpointImplausibleCount: the count field sits outside the CRC, so
// a corrupted count must surface as an error before any allocation — never
// as a giant make() panic or OOM.
func TestCheckpointImplausibleCount(t *testing.T) {
	data := saved(t, LogisticRegression(2, 2, rng.New(6))).Bytes()
	for i := 8; i < 16; i++ {
		data[i] = 0xff // count = 2^64 - 1
	}
	if _, err := readVector(bytes.NewReader(data)); err == nil {
		t.Fatal("implausible parameter count must be rejected")
	}
}

func TestCheckpointBadMagicAndTruncation(t *testing.T) {
	if _, err := readVector(bytes.NewReader([]byte("notacheckpoint!!"))); err == nil {
		t.Fatal("bad magic must fail")
	}
	data := saved(t, LogisticRegression(2, 2, rng.New(5))).Bytes()
	if _, err := readVector(bytes.NewReader(data[:10])); err == nil {
		t.Fatal("truncated header must fail")
	}
	if _, err := readVector(bytes.NewReader(data[:len(data)-6])); err == nil {
		t.Fatal("truncated body must fail")
	}
}
