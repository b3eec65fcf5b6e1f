package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

	"dagmutex/internal/core"
)

// FuzzClientFrame feeds arbitrary bytes to ReadClientFrame, the decoder
// every CLIENT connection (member side and dialing side) reads through.
// Whatever arrives off the socket it must not panic, must never hand out
// (or allocate) a frame larger than MaxClientFrame, and must decode the
// same frames whether or not the reader is buffered and whether or not
// the frame fits the buffer; every frame it accepts re-encodes to exactly
// the bytes it consumed, and every frame AppendClientFrame builds decodes
// back to its fields.
//
// The seed corpus is committed under testdata/fuzz/FuzzClientFrame; CI
// runs `go test -run '^$' -fuzz FuzzClientFrame -fuzztime 10s`.
func FuzzClientFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		// 64 bytes of buffer: most corpus frames fit, long ones take the
		// spill path, and both must agree with the unbuffered reader.
		buffered := bufio.NewReaderSize(bytes.NewReader(stream), 64)
		plain := bytes.NewReader(stream)
		consumed := 0
		for {
			op, id, payload, err := ReadClientFrame(buffered)
			pop, pid, ppayload, perr := ReadClientFrame(plain)
			if (err == nil) != (perr == nil) {
				t.Fatalf("at byte %d: buffered err = %v, unbuffered err = %v", consumed, err, perr)
			}
			if err != nil {
				break
			}
			if op != pop || id != pid || !bytes.Equal(payload, ppayload) {
				t.Fatalf("at byte %d: buffered (%d, %d, %q) != unbuffered (%d, %d, %q)", consumed, op, id, payload, pop, pid, ppayload)
			}
			if 9+len(payload) > MaxClientFrame || cap(ppayload) > MaxClientFrame {
				t.Fatalf("at byte %d: %d-byte payload (cap %d) exceeds MaxClientFrame", consumed, len(payload), cap(ppayload))
			}
			again := AppendClientFrame(nil, op, id, payload)
			if end := consumed + len(again); end > len(stream) || !bytes.Equal(again, stream[consumed:end]) {
				t.Fatalf("at byte %d: accepted frame re-encodes to %x, not the bytes consumed", consumed, again)
			}
			consumed += len(again)
		}

		// The other direction: the input as the fields of one frame.
		var hdr [9]byte
		copy(hdr[:], stream)
		payload := stream[min(len(stream), len(hdr)):]
		payload = payload[:min(len(payload), MaxClientFrame-9)]
		wantOp, wantID := hdr[0], binary.BigEndian.Uint64(hdr[1:])
		frame := AppendClientFrame(nil, wantOp, wantID, payload)
		op, id, got, err := ReadClientFrame(bufio.NewReaderSize(bytes.NewReader(frame), 64))
		if err != nil || op != wantOp || id != wantID || !bytes.Equal(got, payload) {
			t.Fatalf("decode(AppendClientFrame(%d, %d, %d bytes)) = (%d, %d, %d bytes, %v)", wantOp, wantID, len(payload), op, id, len(got), err)
		}
	})
}

// FuzzClientHello feeds arbitrary bytes to ReadClientHello, what a
// dialing client reads right after its handshake. A short, garbage or
// absurd hello must be an error, never a panic; a hello it accepts names
// a shard count a hello may carry and re-encodes to exactly the bytes
// it read. A dial that meets an error here fails (internal/client's
// TestDialRefusesABadHello).
//
// The seed corpus is committed under testdata/fuzz/FuzzClientHello; CI
// runs it beside the frame decoders.
func FuzzClientHello(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		shards, err := ReadClientHello(bytes.NewReader(data))
		if err != nil {
			return
		}
		if shards < 0 || shards > maxHelloShards {
			t.Fatalf("%x read as %d shards", data, shards)
		}
		if again := AppendClientHello(nil, shards); !bytes.Equal(again, data[:clientHelloSize]) {
			t.Fatalf("%x read as %d shards, which encodes to %x", data, shards, again)
		}
	})
}

// FuzzDAGCodec feeds arbitrary bytes to DAGCodec.Decode, the decoder
// every member-to-member frame goes through. Whatever arrives off the
// socket it must not panic; a frame it accepts must re-encode, in no
// more bytes than were read (every kind is fixed-size, so a buffer the
// size of the input never grows), to a frame that decodes to the same
// message — Decode∘Encode is the identity on everything the codec emits,
// even where Decode is lenient about what it reads (any non-zero byte is
// a true flag; Encode writes 1). The by-value route (DecodeMsg /
// AppendEncodeMsg) must agree with it on every input: both reject, or
// both accept with equal fields; the by-value decode declines exactly
// the frames that are not REQUEST or PRIVILEGE; and the by-value encode
// is byte-identical to AppendEncode of the boxed message.
//
// The seed corpus (one frame of every kind, and the ways each can be
// cut, padded or mislabelled) is committed under
// testdata/fuzz/FuzzDAGCodec; CI runs it beside FuzzClientFrame.
func FuzzDAGCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		codec := DAGCodec{}
		m, err := codec.Decode(frame)
		v, byValue, verr := codec.DecodeMsg(frame)
		hot := len(frame) > 0 && (frame[0] == wireRequest || frame[0] == wirePrivilege)
		switch {
		case byValue != hot:
			t.Fatalf("DecodeMsg(%x) ok = %v for kind tag of a hot frame = %v", frame, byValue, hot)
		case !hot && (verr != nil || v != core.Msg{}):
			t.Fatalf("DecodeMsg declined %x with (%+v, %v), want the zero Msg and no error", frame, v, verr)
		case hot && (err == nil) != (verr == nil):
			t.Fatalf("%x: Decode err = %v, DecodeMsg err = %v", frame, err, verr)
		case hot && err == nil && v.Boxed() != m:
			t.Fatalf("%x: Decode = %#v, DecodeMsg = %#v", frame, m, v.Boxed())
		}
		if err != nil {
			return
		}
		buf := make([]byte, 0, len(frame))
		enc, err := codec.AppendEncode(buf, m)
		if err != nil {
			t.Fatalf("decoded %x to %#v, which does not encode: %v", frame, m, err)
		}
		if len(enc) != len(frame) || &enc[0] != &buf[:1][0] {
			t.Fatalf("%#v read from %d bytes re-encodes to %d (buffer regrown: %v)", m, len(frame), len(enc), &enc[0] != &buf[:1][0])
		}
		again, err := codec.Decode(enc)
		if err != nil || again != m {
			t.Fatalf("Decode(Encode(%#v)) = (%#v, %v)", m, again, err)
		}
		if plain, err := codec.Encode(m); err != nil || !bytes.Equal(plain, enc) {
			t.Fatalf("Encode(%#v) = (%x, %v), AppendEncode gave %x", m, plain, err, enc)
		}
		if byValue {
			if venc, err := codec.AppendEncodeMsg(nil, v); err != nil || !bytes.Equal(venc, enc) {
				t.Fatalf("AppendEncodeMsg(%+v) = (%x, %v), AppendEncode gave %x", v, venc, err, enc)
			}
		}
	})
}
