package dataset

import (
	"fmt"

	"repro/internal/rng"
)

// Partition assigns every training sample to exactly one of n nodes.
// Partition[i] is node i's local dataset D_i.
type Partition []*Dataset

// ShardPartition implements the paper's CIFAR-10 distribution (Section 4.2,
// following McMahan et al.): samples are sorted by label, cut into
// shardsPerNode*n contiguous shards, and each node receives shardsPerNode
// shards chosen at random. With shardsPerNode=2 most nodes see only 2 of
// the 10 labels — the "highly heterogeneous" regime of the paper. A sample
// whose label lies outside [0, d.NumClasses) is an error.
func ShardPartition(d *Dataset, n, shardsPerNode int, seed uint64) (Partition, error) {
	if n < 1 || shardsPerNode < 1 {
		return nil, fmt.Errorf("dataset: bad shard partition n=%d shards=%d", n, shardsPerNode)
	}
	totalShards := n * shardsPerNode
	if d.Len() < totalShards {
		return nil, fmt.Errorf("dataset: %d samples cannot fill %d shards", d.Len(), totalShards)
	}
	// Cut the label-sorted samples into contiguous shards of (nearly) equal
	// size, the last absorbing the remainder, and deal them out at random,
	// shardsPerNode each: node i's samples are a window of one slab.
	byLabel, err := sortByLabel(d)
	if err != nil {
		return nil, err
	}
	shardSize := d.Len() / totalShards
	var r rng.RNG
	rng.DeriveTo(&r, seed, 0x54a2d)
	order, samples, ds := r.Perm(totalShards), make([]Sample, 0, d.Len()), make([]Dataset, n)
	p := make(Partition, n)
	for i := range p {
		start := len(samples)
		for _, s := range order[i*shardsPerNode : (i+1)*shardsPerNode] {
			hi := (s + 1) * shardSize
			if s == totalShards-1 {
				hi = d.Len()
			}
			for _, j := range byLabel[s*shardSize : hi] {
				samples = append(samples, d.Samples[j])
			}
		}
		p[i] = &ds[i]
		p[i].NumClasses, p[i].Dim, p[i].Samples = d.NumClasses, d.Dim, samples[start:len(samples):len(samples)]
		p[i].fingerprint = shard(d.fingerprint, n, shardsPerNode, seed, i)
	}
	return p, nil
}

// ShardPartitionFingerprint is ShardPartition(d, n, shardsPerNode,
// seed).Fingerprint() for a d of fingerprint fp.
func ShardPartitionFingerprint(fp uint64, n, shardsPerNode int, seed uint64) uint64 {
	return fold(n, func(i int) uint64 { return shard(fp, n, shardsPerNode, seed, i) })
}

func shard(fp uint64, n, shardsPerNode int, seed uint64, i int) uint64 {
	return mix(fp, uint64(n), uint64(shardsPerNode), seed, uint64(i))
}

// WriterPartitionFingerprint is WriterPartition(writers, n).Fingerprint()
// for GenerateWriters(c)'s writers, fp the first of c.Fingerprints().
func WriterPartitionFingerprint(fp uint64, n int) uint64 {
	return fold(n, func(i int) uint64 { return mix(fp, uint64(i)) })
}

// Fingerprint identifies p by its datasets' fingerprints in node order.
func (p Partition) Fingerprint() uint64 {
	return fold(len(p), func(i int) uint64 { return p[i].fingerprint })
}

func fold(n int, fp func(i int) uint64) (h uint64) {
	for i := range n {
		h = mix(h, fp(i))
	}
	return h
}

// WriterPartition maps the top-n writers (by sample count) to nodes,
// reproducing the paper's FEMNIST setup: "we pick the top-256 clients with
// the highest number of samples, and map each to a node".
func WriterPartition(writers []WriterData, n int) (Partition, error) {
	if len(writers) < n {
		return nil, fmt.Errorf("dataset: only %d writers for %d nodes", len(writers), n)
	}
	p := make(Partition, n)
	for i := 0; i < n; i++ {
		p[i] = writers[i].Samples
	}
	return p, nil
}
