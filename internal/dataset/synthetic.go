package dataset

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// SyntheticConfig describes a Gaussian-prototype classification task.
type SyntheticConfig struct {
	Classes int     // number of labels
	Dim     int     // input dimensionality
	Train   int     // training samples
	Test    int     // test samples (split later into validation/test)
	Noise   float64 // within-class standard deviation
	Seed    uint64
}

// Validate reports whether the configuration is usable.
func (c SyntheticConfig) Validate() error {
	switch {
	case c.Classes < 2:
		return fmt.Errorf("dataset: need >= 2 classes, got %d", c.Classes)
	case c.Dim < 1:
		return fmt.Errorf("dataset: need >= 1 dim, got %d", c.Dim)
	case c.Train < 1 || c.Test < 1:
		return fmt.Errorf("dataset: need positive train/test sizes, got %d/%d", c.Train, c.Test)
	case c.Noise < 0:
		return fmt.Errorf("dataset: negative noise %v", c.Noise)
	}
	return nil
}

// Fingerprints are those Generate(c) stamps on its train and test sets.
func (c SyntheticConfig) Fingerprints() (train, test uint64) {
	h := mix(14695981039346656037, uint64(c.Classes), uint64(c.Dim), uint64(c.Train), uint64(c.Test), math.Float64bits(c.Noise), c.Seed)
	return mix(h, 0), mix(h, 1)
}

// FEMNISTLike returns the default 62-class configuration standing in for
// FEMNIST at simulation scale. Samples are generated per writer via
// GenerateWriters; this config sets the shared geometry.
func FEMNISTLike(seed uint64) SyntheticConfig {
	return SyntheticConfig{Classes: 62, Dim: 32, Train: 25600, Test: 5120, Noise: 1.0, Seed: seed}
}

// prototypes draws one unit-ish prototype vector per class. Prototype
// entries are N(0,1), giving expected pairwise distance sqrt(2*Dim) —
// classes overlap through the Noise but remain learnable.
func prototypes(cfg SyntheticConfig, r *rng.RNG) []tensor.Vector {
	protos, slab := make([]tensor.Vector, cfg.Classes), tensor.NewVector(cfg.Classes*cfg.Dim)
	r.Normals(slab)
	for c := range protos {
		protos[c] = slab[c*cfg.Dim : (c+1)*cfg.Dim : (c+1)*cfg.Dim]
	}
	return protos
}

// drawSplit draws n samples from r into one slab, each input a window
// capped at its own length: sample i is label(i)'s prototype plus noise
// plus extra (nil for none), its label drawn before its inputs. The noise
// is drawn into the window and scaled there.
func drawSplit(cfg SyntheticConfig, n int, protos []tensor.Vector, r *rng.RNG, extra tensor.Vector, label func(i int) int) *Dataset {
	d, slab := &Dataset{NumClasses: cfg.Classes, Dim: cfg.Dim, Samples: make([]Sample, n)}, tensor.NewVector(n*cfg.Dim)
	for i := range d.Samples {
		y, x := label(i), slab[i*cfg.Dim:(i+1)*cfg.Dim:(i+1)*cfg.Dim]
		r.Normals(x)
		for k, z := range x {
			x[k] = protos[y][k] + cfg.Noise*z
			if extra != nil {
				x[k] += extra[k]
			}
		}
		d.Samples[i] = Sample{X: x, Y: y}
	}
	return d
}

// shuffle puts d's samples in random order, in place.
func (d *Dataset) shuffle(r *rng.RNG) *Dataset {
	r.Shuffle(len(d.Samples), func(i, j int) { d.Samples[i], d.Samples[j] = d.Samples[j], d.Samples[i] })
	return d
}

// Generate builds balanced train and test datasets from the configuration.
// Labels cycle 0,1,...,Classes-1 so both splits are class-balanced; the
// test split is IID by construction, matching the paper's IID test set
// (Section 4.4: "the test set follows an IID distribution").
func Generate(cfg SyntheticConfig) (train, test *Dataset, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	protos := prototypes(cfg, rng.Derive(cfg.Seed, 0xda7a))
	cycle := func(i int) int { return i % cfg.Classes }
	train = drawSplit(cfg, cfg.Train, protos, rng.Derive(cfg.Seed, 0xda7a, 1), nil, cycle).shuffle(rng.Derive(cfg.Seed, 0xda7a, 2))
	test = drawSplit(cfg, cfg.Test, protos, rng.Derive(cfg.Seed, 0xda7a, 3), nil, cycle).shuffle(rng.Derive(cfg.Seed, 0xda7a, 4))
	train.fingerprint, test.fingerprint = cfg.Fingerprints()
	return train, test, nil
}

// WriterData is the per-writer portion of a FEMNIST-like corpus: all
// samples produced by one "person", sharing a style offset, with a skewed
// label histogram — mirroring LEAF's natural per-user clustering.
type WriterData struct {
	Writer  int
	Samples *Dataset
}

// WritersConfig extends SyntheticConfig with the writer model.
type WritersConfig struct {
	SyntheticConfig
	Writers        int     // number of distinct writers
	MinPerWriter   int     // smallest per-writer sample count
	MaxPerWriter   int     // largest per-writer sample count
	StyleStd       float64 // magnitude of the per-writer style offset
	LabelSkewAlpha float64 // Dirichlet-like concentration; smaller = more skew
}

// FEMNISTWriters returns the default writer-model configuration.
func FEMNISTWriters(seed uint64) WritersConfig {
	return WritersConfig{
		SyntheticConfig: FEMNISTLike(seed),
		Writers:         300,
		MinPerWriter:    60,
		MaxPerWriter:    200,
		StyleStd:        0.35,
		LabelSkewAlpha:  0.5,
	}
}

// Fingerprints are those GenerateWriters(c) stamps: test on its test set,
// and writers mixed with r on its writer of rank r by sample count.
func (c WritersConfig) Fingerprints() (writers, test uint64) {
	h, _ := c.SyntheticConfig.Fingerprints()
	h = mix(h, uint64(c.Writers), uint64(c.MinPerWriter), uint64(c.MaxPerWriter), math.Float64bits(c.StyleStd), math.Float64bits(c.LabelSkewAlpha))
	return mix(h, 0), mix(h, 1)
}

// GenerateWriters builds a per-writer corpus plus an IID test set drawn from
// the same prototypes (no style offsets on the test side: the paper
// evaluates on the global test distribution). Writers are returned sorted by
// descending sample count so callers can take the paper's "top-256 clients
// with the highest number of samples".
func GenerateWriters(cfg WritersConfig) (writers []WriterData, test *Dataset, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.Writers < 1 {
		return nil, nil, fmt.Errorf("dataset: need >= 1 writer, got %d", cfg.Writers)
	}
	if cfg.MinPerWriter < 1 || cfg.MaxPerWriter < cfg.MinPerWriter {
		return nil, nil, fmt.Errorf("dataset: bad per-writer range [%d,%d]", cfg.MinPerWriter, cfg.MaxPerWriter)
	}
	protos := prototypes(cfg.SyntheticConfig, rng.Derive(cfg.Seed, 0x3717e5))
	// Every writer draws its style and label weights into the same scratch.
	style, weights := tensor.NewVector(cfg.Dim), make([]float64, cfg.Classes)
	writers = make([]WriterData, cfg.Writers)
	var wr rng.RNG
	for w := 0; w < cfg.Writers; w++ {
		rng.DeriveTo(&wr, cfg.Seed, 0x3717e5, uint64(w)+1)
		wr.Normals(style)
		for i, z := range style {
			style[i] = cfg.StyleStd * z
		}
		// Skewed label weights: symmetric Dirichlet via normalized Gamma
		// draws, approximated with sums of exponentials for alpha<1 using
		// the Ahrens-Dieter-free trick: weight = u^(1/alpha) works well
		// enough for skew purposes and keeps the generator tiny.
		sum := 0.0
		for c := range weights {
			u := wr.Float64()
			if u == 0 {
				u = 1e-12
			}
			weights[c] = pow(u, 1/cfg.LabelSkewAlpha)
			sum += weights[c]
		}
		n := cfg.MinPerWriter + wr.Intn(cfg.MaxPerWriter-cfg.MinPerWriter+1)
		// Each sample's class is drawn from the skewed distribution.
		d := drawSplit(cfg.SyntheticConfig, n, protos, &wr, style, func(int) int {
			target := wr.Float64() * sum
			y, acc := 0, 0.0
			for c, wgt := range weights {
				acc += wgt
				if target <= acc {
					y = c
					break
				}
			}
			return y
		})
		writers[w] = WriterData{Writer: w, Samples: d}
	}
	// Sort by descending sample count (stable on writer id for determinism).
	sortWriters(writers)
	fp, testFP := cfg.Fingerprints()
	for r := range writers {
		writers[r].Samples.fingerprint = mix(fp, uint64(r))
	}

	test = drawSplit(cfg.SyntheticConfig, cfg.Test, protos, rng.Derive(cfg.Seed, 0x3717e5, 0xffff), nil,
		func(i int) int { return i % cfg.Classes }).shuffle(rng.Derive(cfg.Seed, 0x3717e5, 0xfffe))
	test.fingerprint = testFP
	return writers, test, nil
}

func sortWriters(ws []WriterData) {
	sort.SliceStable(ws, func(i, j int) bool {
		if ws[i].Samples.Len() != ws[j].Samples.Len() {
			return ws[i].Samples.Len() > ws[j].Samples.Len()
		}
		return ws[i].Writer < ws[j].Writer
	})
}

func pow(x, y float64) float64 { return math.Pow(x, y) }
