package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

func TestPackBytesRoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("x"),
		[]byte("12345678"),  // exactly one chunk
		[]byte("123456789"), // one chunk + 1
		[]byte(`{"kind":"gamma-grid","params":{"nodes":12}}`),
		bytes.Repeat([]byte{0x00, 0xff, 0x7f, 0x80}, 1000),
	}
	for _, in := range cases {
		vec, err := PackBytes(in)
		if err != nil {
			t.Fatalf("pack %d bytes: %v", len(in), err)
		}
		out, err := UnpackBytes(vec)
		if err != nil {
			t.Fatalf("unpack %d bytes: %v", len(in), err)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("round trip of %d bytes lost data", len(in))
		}
	}
}

// Packed payloads must survive the full wire codec — including NaN-pattern
// float64 elements that arbitrary byte strings produce.
func TestPackedBytesSurviveWireCodec(t *testing.T) {
	payload := []byte(strings.Repeat("\xff\x00nan-pattern\x7f", 64))
	vec, err := PackBytes(payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{KindJob, KindResult, KindProgress} {
		buf, err := Marshal(nil, Message{From: 1, To: 2, Round: 7, Kind: kind, Vec: vec})
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		m, n, err := Unmarshal(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("kind %d: unmarshal: %v (consumed %d of %d)", kind, err, n, len(buf))
		}
		if m.Kind != kind || m.Round != 7 {
			t.Fatalf("kind %d: header %+v", kind, m)
		}
		got, err := UnpackBytes(m.Vec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("kind %d: payload corrupted on the wire", kind)
		}
	}
}

func TestUnpackBytesRejectsMalformed(t *testing.T) {
	if _, err := UnpackBytes(nil); err == nil {
		t.Fatal("empty vector must error")
	}
	if _, err := UnpackBytes([]float64{-8, 0}); err == nil {
		t.Fatal("negative length must error")
	}
	if _, err := UnpackBytes([]float64{3.5, 0}); err == nil {
		t.Fatal("fractional length must error")
	}
	if _, err := UnpackBytes([]float64{16, 0}); err == nil {
		t.Fatal("length/element mismatch must error")
	}
	if _, err := UnpackBytes([]float64{float64(MaxPackedBytes) + 8, 0}); err == nil {
		t.Fatal("oversize length must error")
	}
}

func TestUnknownKindStillRejected(t *testing.T) {
	buf, err := Marshal(nil, Message{From: 0, To: 1, Round: 0, Kind: KindProgress})
	if err != nil {
		t.Fatal(err)
	}
	buf[4] = byte(KindProgress) + 1 // first undefined kind value
	if _, _, err := Unmarshal(buf); err == nil {
		t.Fatal("undefined kind must be rejected")
	}
	if !ValidKind(KindJob) || !ValidKind(KindResult) || ValidKind(0) || ValidKind(KindProgress+1) {
		t.Fatal("ValidKind bounds wrong")
	}
}

// referenceFrame is the encoding the byte-frame codec must reproduce: the
// document packed into a vector and written as a model message.
func referenceFrame(t testing.TB, kind Kind, round int, doc []byte) []byte {
	t.Helper()
	vec, err := PackBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	var w bytes.Buffer
	if err := WriteMessage(&w, Message{Kind: kind, Round: round, Vec: vec}); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// referenceRead is the decoding ReadBytesFrame must agree with.
func referenceRead(in []byte) (Kind, int, []byte, error) {
	m, err := ReadMessage(bytes.NewReader(in))
	if err != nil {
		return 0, 0, nil, err
	}
	doc, err := UnpackBytes(m.Vec)
	return m.Kind, m.Round, doc, err
}

func TestBytesFrameMatchesPackedMessage(t *testing.T) {
	var rbuf []byte // reused across every read, as a connection does
	for _, n := range []int{0, 1, 7, 8, 9, 43, 4096} {
		doc := bytes.Repeat([]byte("\xff{a\x00"), n)[:n]
		for _, kind := range []Kind{KindJob, KindResult, KindProgress} {
			want := referenceFrame(t, kind, 7+n, doc)
			got, err := FinishBytesFrame(append(make([]byte, BytesFrameReserve), doc...), kind, 7+n)
			if err != nil {
				t.Fatalf("%d bytes: %v", n, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%d bytes, kind %d: frame\n% x\nwant\n% x", n, kind, got, want)
			}
			// Two frames back to back: the reader must stop at the boundary.
			r := bytes.NewReader(append(append([]byte{}, want...), want...))
			for i := 0; i < 2; i++ {
				k, round, out, err := ReadBytesFrame(r, &rbuf)
				if err != nil || k != kind || round != 7+n || !bytes.Equal(out, doc) {
					t.Fatalf("%d bytes, read %d: kind %d round %d doc %q err %v", n, i, k, round, out, err)
				}
			}
			if r.Len() != 0 {
				t.Fatalf("%d bytes: %d bytes left unread", n, r.Len())
			}
		}
	}
	if _, err := FinishBytesFrame(make([]byte, BytesFrameReserve), 0, 0); err == nil {
		t.Fatal("unset kind must error")
	}
	if _, err := FinishBytesFrame(make([]byte, BytesFrameReserve), KindJob, -1); err == nil {
		t.Fatal("negative round must error")
	}
	if _, err := FinishBytesFrame(make([]byte, BytesFrameReserve-1), KindJob, 0); err == nil {
		t.Fatal("a buffer shorter than the reserve must error")
	}
}

// FuzzBytesFrame is differential: on arbitrary input ReadBytesFrame and
// the reference path (ReadMessage + UnpackBytes) agree on accept/reject
// and, on accept, on kind, round and document.
func FuzzBytesFrame(f *testing.F) {
	good := referenceFrame(f, KindResult, 3, []byte(`{"stats":{"cells":1}}`))
	mutate := func(edit func(b []byte)) []byte {
		b := append([]byte{}, good...)
		edit(b)
		return b
	}
	setLen := func(v float64) func(b []byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[headerSize:], math.Float64bits(v)) }
	}
	setCount := func(n uint32) func(b []byte) {
		return func(b []byte) { binary.LittleEndian.PutUint32(b[17:21], n) }
	}
	f.Add(good)
	f.Add(referenceFrame(f, KindJob, 0, nil))
	f.Add(append(append([]byte{}, good...), good...))
	f.Add([]byte{})
	f.Add(good[:3])                                                 // truncated magic
	f.Add(good[:headerSize-1])                                      // truncated header
	f.Add(good[:headerSize])                                        // header only
	f.Add(good[:len(good)-1])                                       // truncated payload
	f.Add(mutate(func(b []byte) { b[0] ^= 1 }))                     // bad magic
	f.Add(mutate(func(b []byte) { b[4] = 0 }))                      // kind unset
	f.Add(mutate(func(b []byte) { b[4] = byte(KindProgress) + 1 })) // undefined kind
	f.Add(mutate(func(b []byte) { b[4] = byte(KindModel) }))        // a model frame is a valid kind
	f.Add(mutate(setCount(0))[:headerSize])                         // no length element
	f.Add(mutate(setCount(MaxPayload + 1)))                         // count over the cap
	f.Add(mutate(setCount(2)))                                      // element count mismatch (short)
	f.Add(mutate(setCount(5)))                                      // element count mismatch (long, truncated)
	f.Add(mutate(setLen(3.5)))                                      // non-integral length
	f.Add(mutate(setLen(-8)))                                       // negative length
	f.Add(mutate(setLen(math.Copysign(0, -1))))                     // negative zero
	f.Add(mutate(setLen(math.NaN())))
	f.Add(mutate(setLen(math.Inf(1))))
	f.Add(mutate(setLen(float64(1 << 63))))
	f.Add(mutate(setLen(float64(MaxPackedBytes) + 8)))                                    // oversized length
	f.Add(mutate(setLen(16)))                                                             // length below the elements sent
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[13:17], 0xffffffff) })) // round with the sign bit

	f.Fuzz(func(t *testing.T, in []byte) {
		// Both readers allocate what the count field claims before reading
		// it; a claim far beyond the input is the truncated-payload case at
		// up to 128 MiB per execution, which smaller claims already cover.
		if len(in) >= headerSize {
			if c := binary.LittleEndian.Uint32(in[17:21]); c <= MaxPayload && int(c) > len(in)/8+1024 {
				t.Skip()
			}
		}
		wantKind, wantRound, wantDoc, wantErr := referenceRead(in)
		var buf []byte
		kind, round, doc, err := ReadBytesFrame(bytes.NewReader(in), &buf)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("accept/reject differ: new %v, reference %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if kind != wantKind || round != wantRound || !bytes.Equal(doc, wantDoc) {
			t.Fatalf("decoded (%d, %d, %q), reference (%d, %d, %q)", kind, round, doc, wantKind, wantRound, wantDoc)
		}
	})
}
