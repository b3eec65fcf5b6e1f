package transport

import (
	"bytes"
	"fmt"
	"testing"

	"dagmutex/internal/core"
	"dagmutex/internal/failure"
	"dagmutex/internal/mutex"
)

// everyFrame is one value of every wire frame type the DAG codec knows,
// with every field bit-populated, so a round-trip that drops or reorders
// a field cannot pass by luck of the zero value.
func everyFrame() []mutex.Message {
	return []mutex.Message{
		core.Request{From: 3, Origin: 7, Epoch: 9, Hops: 511},
		core.Privilege{Generation: 1<<40 + 5, Epoch: 3, Hops: 30},
		core.Privilege{Generation: 42, Epoch: 3, Requesting: true, Hops: 1},
		failure.Heartbeat{},
		core.Probe{Epoch: 5, Dead: 2},
		core.ProbeAck{Epoch: 5, HasToken: true, Requesting: true, Generation: 77},
		core.Reorient{Epoch: 5, Next: 4, Follow: 2, Token: true},
		core.Join{},
		core.Initialize{},
		core.Welcome{Epoch: 6},
	}
}

// TestAppendEncodeRoundTripsEveryFrameType drives every frame type
// through the pooled encode path — AppendEncode into a reused buffer,
// exactly as the TCP writers encode into pooled frame buffers — and
// checks the result decodes back to the original, matches the one-shot
// Encode bytes, and never rewrites the prefix it was appended after.
func TestAppendEncodeRoundTripsEveryFrameType(t *testing.T) {
	c := DAGCodec{}
	buf := make([]byte, 0, 64) // one pooled buffer reused across all frames
	for _, m := range everyFrame() {
		prefix := append(buf[:0], 0xAA, 0xBB, 0xCC)
		out, err := c.AppendEncode(prefix, m)
		if err != nil {
			t.Fatalf("AppendEncode %T: %v", m, err)
		}
		if !bytes.Equal(out[:3], []byte{0xAA, 0xBB, 0xCC}) {
			t.Fatalf("AppendEncode %T rewrote the bytes before its dst", m)
		}
		oneShot, err := c.Encode(m)
		if err != nil {
			t.Fatalf("Encode %T: %v", m, err)
		}
		if !bytes.Equal(out[3:], oneShot) {
			t.Fatalf("AppendEncode %T = %v, Encode = %v", m, out[3:], oneShot)
		}
		dec, err := c.Decode(oneShot)
		if err != nil {
			t.Fatalf("Decode %T: %v", m, err)
		}
		if dec != m {
			t.Fatalf("round trip %#v -> %#v", m, dec)
		}
	}
}

// TestPrivilegeRequestingFlagSurvivesCodec pins the pipelined-handoff
// extension's wire bit both ways: a fused PRIVILEGE must come back with
// Requesting set, and a plain one must not.
func TestPrivilegeRequestingFlagSurvivesCodec(t *testing.T) {
	for _, requesting := range []bool{false, true} {
		in := core.Privilege{Generation: 9, Epoch: 2, Requesting: requesting}
		b, err := DAGCodec{}.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		m, err := DAGCodec{}.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if m != in {
			t.Fatalf("PRIVILEGE(requesting=%v) round-trip = %#v", requesting, m)
		}
	}
}

// codecRoutes is the codec's two ways through a REQUEST or PRIVILEGE:
// the boxed Codec methods and the by-value MsgCodec ones. Both take and
// return the boxed message, so one test body drives either.
var codecRoutes = []struct {
	name   string
	encode func(dst []byte, m mutex.Message) ([]byte, error)
	decode func(data []byte) (mutex.Message, error)
}{
	{"boxed", DAGCodec{}.AppendEncode, DAGCodec{}.Decode},
	{"by value",
		func(dst []byte, m mutex.Message) ([]byte, error) {
			v := core.Msg{}
			switch msg := m.(type) {
			case core.Request:
				v = core.RequestMsg(msg)
			case core.Privilege:
				v = core.PrivilegeMsg(msg)
			}
			return DAGCodec{}.AppendEncodeMsg(dst, v)
		},
		func(data []byte) (mutex.Message, error) {
			v, ok, err := DAGCodec{}.DecodeMsg(data)
			if err == nil && !ok {
				return nil, fmt.Errorf("by-value decode declined a %d-byte frame", len(data))
			}
			return v.Boxed(), err
		}},
}

// TestPooledBufferReuseDoesNotAliasFrames encodes two frames into the
// same pooled buffer back to back, the way a recycled *frame is reused
// across sends. The first frame's bytes must be fully consumed (decoded
// into a self-contained message value) before the buffer is truncated
// and rewritten; if the decode retained the buffer, the second encode
// would corrupt the first message. Over both routes.
func TestPooledBufferReuseDoesNotAliasFrames(t *testing.T) {
	for _, c := range codecRoutes {
		t.Run(c.name, func(t *testing.T) {
			buf := make([]byte, 0, 64)

			first := core.Privilege{Generation: 7, Epoch: 1, Requesting: true}
			b1, err := c.encode(buf, first)
			if err != nil {
				t.Fatal(err)
			}
			got1, err := c.decode(b1)
			if err != nil {
				t.Fatal(err)
			}

			// Reuse the same backing array for an unrelated frame,
			// overwriting every byte the first encode produced.
			second := core.Request{From: 0x7F7F7F7F, Origin: 0x7F7F7F7F, Epoch: 0xFFFFFFFF}
			b2, err := c.encode(b1[:0], second)
			if err != nil {
				t.Fatal(err)
			}
			if &b1[0] != &b2[0] {
				t.Fatal("test expects both encodes to share one backing array")
			}

			if got1 != first {
				t.Fatalf("first frame corrupted by buffer reuse: %#v, want %#v", got1, first)
			}
			got2, err := c.decode(b2)
			if err != nil {
				t.Fatal(err)
			}
			if got2 != second {
				t.Fatalf("second frame = %#v, want %#v", got2, second)
			}
		})
	}
}

// TestMsgCodecMatchesBoxedCodec: for every frame type the by-value
// methods write the bytes AppendEncode writes and read what Decode
// reads — and decline, without an error, exactly the kinds that are not
// REQUEST or PRIVILEGE.
func TestMsgCodecMatchesBoxedCodec(t *testing.T) {
	c := DAGCodec{}
	for _, m := range everyFrame() {
		wire, err := c.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		v, ok, err := c.DecodeMsg(wire)
		if err != nil {
			t.Fatalf("DecodeMsg %T: %v", m, err)
		}
		_, isReq := m.(core.Request)
		_, isPriv := m.(core.Privilege)
		if ok != (isReq || isPriv) {
			t.Fatalf("DecodeMsg %T: ok = %v", m, ok)
		}
		if !ok {
			if v != (core.Msg{}) {
				t.Fatalf("DecodeMsg declined %T but returned %+v", m, v)
			}
			continue
		}
		if v.Boxed() != m {
			t.Fatalf("DecodeMsg %#v -> %#v", m, v.Boxed())
		}
		again, err := c.AppendEncodeMsg([]byte{0xAA}, v)
		if err != nil || !bytes.Equal(again[1:], wire) || again[0] != 0xAA {
			t.Fatalf("AppendEncodeMsg %#v = (%x, %v), AppendEncode gave %x", m, again, err, wire)
		}
	}
	if _, err := c.AppendEncodeMsg(nil, core.Msg{}); err == nil {
		t.Fatal("AppendEncodeMsg encoded a message with no kind")
	}
}

// TestCodecRejectsLegacyFrameLengths pins the frame-size bumps the wire
// extensions introduced: the pre-Requesting 13-byte PRIVILEGE, the
// pre-hop-counter 14-byte PRIVILEGE and 13-byte REQUEST layouts must all
// be rejected, not silently mis-decoded — on both routes, by the frame's
// own length check (the by-value decode must not merely decline them).
func TestCodecRejectsLegacyFrameLengths(t *testing.T) {
	for _, tc := range []struct {
		kind string
		tag  byte
		n    int
	}{
		{"PRIVILEGE pre-Requesting", 2, 13},
		{"PRIVILEGE pre-hops", 2, 14},
		{"REQUEST pre-hops", 1, 13},
	} {
		legacy := make([]byte, tc.n)
		legacy[0] = tc.tag
		for _, c := range codecRoutes {
			if _, err := c.decode(legacy); err == nil {
				t.Fatalf("%s decode accepted a %d-byte %s frame", c.name, tc.n, tc.kind)
			}
		}
	}
}

// TestRequestHopCounterSurvivesCodec pins the adaptive-topology wire
// extension both ways: hop counts on REQUEST and PRIVILEGE round-trip
// exactly, including the saturation value.
func TestRequestHopCounterSurvivesCodec(t *testing.T) {
	for _, m := range []mutex.Message{
		core.Request{From: 1, Origin: 2, Epoch: 1, Hops: 0},
		core.Request{From: 1, Origin: 2, Epoch: 1, Hops: 65535},
		core.Privilege{Generation: 3, Epoch: 1, Hops: 65535},
	} {
		b, err := DAGCodec{}.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DAGCodec{}.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if got != m {
			t.Fatalf("hop round-trip %#v -> %#v", m, got)
		}
	}
}
