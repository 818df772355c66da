// Package transport is the sweep service's wire: a message codec and the
// byte frames built on it, plus an in-process channel network that the
// benchmark still times. It is kept only for the frozen bench/, until
// ROADMAP item 1(b) replaces sweepd_warm and item 15 deletes it.
//
// # Byte frames
//
// The sweep server (internal/sweep) sends JSON documents in
// the message codec's frames (codec.go): a 21-byte header, then a float64
// payload whose element 0 is the document's byte length and whose other
// elements carry 8 document bytes each. FinishBytesFrame and ReadBytesFrame
// (bytes.go) encode and check such a frame in place, with no vector built.
// Marshal/Unmarshal with PackBytes/UnpackBytes are the reference encoding
// the byte-frame tests and FuzzBytesFrame compare them against.
//
// # Local
//
// Local is an in-process channel network whose Send hands the receiver the
// sender's slice itself. The round engine does not use it: sim reads a live
// neighbor's model vector where it lies. Local, Marshal, Unmarshal,
// EncodedSize and PackBytes stay only because the benchmark (bench/) still
// times them; they go when the benchmark retires its transport rows and the
// byte frames move into internal/sweep (ROADMAP items 1 and 14).
package transport
