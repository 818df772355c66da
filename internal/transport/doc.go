// Package transport moves model vectors between nodes. It is the
// counterpart of DecentralizePy's socket layer in the paper's stack.
//
// # Networks and endpoints
//
// A Network hands out one Endpoint per node; Send delivers a Message to a
// peer and Recv blocks for the next arrival. Two implementations share the
// interface: Local delivers through buffered channels inside a single
// process (the fast path used for 256-node simulations), and TCP frames
// the same messages over real sockets (examples/tcpcluster and the
// transport tests run nodes as genuine network peers on localhost). The
// simulator is agnostic to which one it is given — runs are bit-identical
// across transports. The sweep service sends JSON documents in the same
// frames, encoded and checked in place (bytes.go); PackBytes/UnpackBytes
// remain only as the reference encoding for tests and the benchmark probe,
// slated for deletion with ROADMAP item 5's wire-format change.
//
// # Who owns Message.Vec
//
// Receivers never write Vec, on any backend. What the sender may do with
// its buffer after Send returns depends on the backend:
//
//   - Local delivers the sender's slice itself. The sender must leave an
//     element of it unwritten until every receiver has finished reading
//     that element. The round engine sends the model vector itself and
//     next writes it in the aggregate phase's mix, block by block, each
//     block only after every sum that reads it — the sender's own and each
//     receiver's — is taken (nn.Mix), so nothing is copied, per edge or
//     per sender, and a node has no second vector.
//   - TCP serializes Vec before Send returns and the receiving side
//     decodes into a vector of its own, so the sender is free at once.
//   - Flaky forwards the Message untouched (or fails the send) and
//     inherits the rule of the network it wraps.
//
// Code that must run over any Network follows the strictest rule, Local's.
//
// # Fault injection
//
// Flaky wraps any Network and injects deterministic send failures (every
// n-th send errors), used to verify the engine surfaces transport errors
// instead of hanging or corrupting a round. Brown-outs need no wrapper:
// with dead-node dropout (sim.Config.DropDeadNodes) the engine sends
// nothing to or from a dead node and counts the sends it skipped.
package transport
