package transport

import (
	"encoding/binary"
	"fmt"

	"dagmutex/internal/core"
	"dagmutex/internal/failure"
	"dagmutex/internal/mutex"
)

// Codec translates protocol messages to and from wire bytes for the TCP
// runtime. Implementations must be stateless and safe for concurrent use.
// These three methods are the boxed route and all a codec needs; one
// that also implements MsgCodec lets its host keep REQUEST and PRIVILEGE
// off the heap.
type Codec interface {
	// Encode serializes m.
	Encode(m mutex.Message) ([]byte, error)
	// AppendEncode serializes m into dst (growing it as needed) and
	// returns the extended slice — the allocation-free path the framed
	// writers use with pooled buffers. Encode(m) must equal
	// AppendEncode(nil, m).
	AppendEncode(dst []byte, m mutex.Message) ([]byte, error)
	// Decode parses bytes produced by Encode. The returned message must
	// not retain data: callers reuse the buffer for the next frame.
	Decode(data []byte) (mutex.Message, error)
}

// MsgCodec is the optional Codec capability for the by-value route: a
// codec that can write a DAG REQUEST or PRIVILEGE straight from a
// core.Msg and read one back without producing a mutex.Message. A
// TCPHost probes it once at construction; DAGCodec implements it. With a
// codec that lacks it (another protocol's, or a wrapper exposing only the
// three Codec methods) the host boxes by-value sends into AppendEncode
// and decodes every frame through Decode — same bytes on the wire, so
// hosts with and without it share a cluster.
type MsgCodec interface {
	// AppendEncodeMsg serializes m into dst exactly as AppendEncode would
	// serialize m.Boxed().
	AppendEncodeMsg(dst []byte, m core.Msg) ([]byte, error)
	// DecodeMsg parses data if it is a REQUEST or PRIVILEGE frame. ok is
	// false (with a nil error) for every other frame, which the caller
	// then hands to Decode; a REQUEST or PRIVILEGE frame that Decode
	// would reject is rejected here with the same error.
	DecodeMsg(data []byte) (m core.Msg, ok bool, err error)
}

// Wire kind tags for the DAG protocol and its failure extension.
const (
	wireRequest   byte = 1
	wirePrivilege byte = 2
	wireHeartbeat byte = 3
	wireProbe     byte = 4
	wireProbeAck  byte = 5
	wireReorient  byte = 6
	wireJoin      byte = 7
	wireWelcome   byte = 8
	wireInit      byte = 9
)

// DAGCodec encodes the messages of the thesis's algorithm plus the
// failure extension. A REQUEST is fifteen bytes on the wire (tag + two
// 32-bit identifiers + the 32-bit recovery epoch + the 16-bit hop
// counter); a PRIVILEGE is a tag byte plus the 64-bit fencing
// generation, the epoch, the pipelined-request flag and the 16-bit
// request-path hop count. The recovery
// messages (PROBE, PROBEACK, REORIENT, JOIN, WELCOME) and the failure
// detector's HEARTBEAT are encoded alongside, so one framed connection
// carries protocol, recovery and liveness traffic alike.
type DAGCodec struct{}

var _ Codec = DAGCodec{}
var _ MsgCodec = DAGCodec{}

// Encode implements Codec.
func (c DAGCodec) Encode(m mutex.Message) ([]byte, error) {
	return c.AppendEncode(nil, m)
}

// AppendEncode implements Codec: it serializes m into dst without
// allocating (beyond growing dst once to its steady-state capacity),
// so the TCP writers can encode straight into pooled frame buffers.
func (DAGCodec) AppendEncode(dst []byte, m mutex.Message) ([]byte, error) {
	switch msg := m.(type) {
	case core.Request:
		return appendRequest(dst, msg), nil
	case core.Privilege:
		return appendPrivilege(dst, msg), nil
	case failure.Heartbeat:
		return append(dst, wireHeartbeat), nil
	case core.Probe:
		dst = append(dst, wireProbe)
		dst = binary.BigEndian.AppendUint32(dst, msg.Epoch)
		return binary.BigEndian.AppendUint32(dst, uint32(msg.Dead)), nil
	case core.ProbeAck:
		dst = append(dst, wireProbeAck)
		dst = binary.BigEndian.AppendUint32(dst, msg.Epoch)
		dst = append(dst, boolByte(msg.HasToken), boolByte(msg.Requesting))
		return binary.BigEndian.AppendUint64(dst, msg.Generation), nil
	case core.Reorient:
		dst = append(dst, wireReorient)
		dst = binary.BigEndian.AppendUint32(dst, msg.Epoch)
		dst = binary.BigEndian.AppendUint32(dst, uint32(msg.Next))
		dst = binary.BigEndian.AppendUint32(dst, uint32(msg.Follow))
		return append(dst, boolByte(msg.Token)), nil
	case core.Join:
		return append(dst, wireJoin), nil
	case core.Initialize:
		return append(dst, wireInit), nil
	case core.Welcome:
		dst = append(dst, wireWelcome)
		return binary.BigEndian.AppendUint32(dst, msg.Epoch), nil
	default:
		return nil, fmt.Errorf("dag codec: cannot encode %T", m)
	}
}

// appendRequest and appendPrivilege write, and decodeRequest and
// decodePrivilege read, the two hot wire layouts — here and nowhere
// else: the boxed methods and the by-value ones both call them.
func appendRequest(dst []byte, r core.Request) []byte {
	dst = append(dst, wireRequest)
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.From))
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.Origin))
	dst = binary.BigEndian.AppendUint32(dst, r.Epoch)
	return binary.BigEndian.AppendUint16(dst, r.Hops)
}

func appendPrivilege(dst []byte, p core.Privilege) []byte {
	dst = append(dst, wirePrivilege)
	dst = binary.BigEndian.AppendUint64(dst, p.Generation)
	dst = binary.BigEndian.AppendUint32(dst, p.Epoch)
	dst = append(dst, boolByte(p.Requesting))
	return binary.BigEndian.AppendUint16(dst, p.Hops)
}

func decodeRequest(data []byte) (core.Request, error) {
	if len(data) != 15 {
		return core.Request{}, fmt.Errorf("dag codec: REQUEST frame has %d bytes, want 15", len(data))
	}
	return core.Request{
		From:   mutex.ID(binary.BigEndian.Uint32(data[1:5])),
		Origin: mutex.ID(binary.BigEndian.Uint32(data[5:9])),
		Epoch:  binary.BigEndian.Uint32(data[9:13]),
		Hops:   binary.BigEndian.Uint16(data[13:15]),
	}, nil
}

func decodePrivilege(data []byte) (core.Privilege, error) {
	if len(data) != 16 {
		return core.Privilege{}, fmt.Errorf("dag codec: PRIVILEGE frame has %d bytes, want 16", len(data))
	}
	return core.Privilege{
		Generation: binary.BigEndian.Uint64(data[1:9]),
		Epoch:      binary.BigEndian.Uint32(data[9:13]),
		Requesting: data[13] != 0,
		Hops:       binary.BigEndian.Uint16(data[14:16]),
	}, nil
}

// AppendEncodeMsg implements MsgCodec.
func (DAGCodec) AppendEncodeMsg(dst []byte, m core.Msg) ([]byte, error) {
	switch m.Kind {
	case core.MsgRequest:
		return appendRequest(dst, m.Request()), nil
	case core.MsgPrivilege:
		return appendPrivilege(dst, m.Privilege()), nil
	default:
		return nil, fmt.Errorf("dag codec: cannot encode a by-value message of %v", m.Kind)
	}
}

// DecodeMsg implements MsgCodec.
func (DAGCodec) DecodeMsg(data []byte) (core.Msg, bool, error) {
	if len(data) == 0 {
		return core.Msg{}, false, nil
	}
	switch data[0] {
	case wireRequest:
		r, err := decodeRequest(data)
		if err != nil {
			return core.Msg{}, true, err
		}
		return core.RequestMsg(r), true, nil
	case wirePrivilege:
		p, err := decodePrivilege(data)
		if err != nil {
			return core.Msg{}, true, err
		}
		return core.PrivilegeMsg(p), true, nil
	default:
		return core.Msg{}, false, nil
	}
}

// Decode implements Codec.
func (DAGCodec) Decode(data []byte) (mutex.Message, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("dag codec: empty frame")
	}
	switch data[0] {
	case wireRequest:
		r, err := decodeRequest(data)
		if err != nil {
			return nil, err
		}
		return r, nil
	case wirePrivilege:
		p, err := decodePrivilege(data)
		if err != nil {
			return nil, err
		}
		return p, nil
	case wireHeartbeat:
		if len(data) != 1 {
			return nil, fmt.Errorf("dag codec: HEARTBEAT frame has %d bytes, want 1", len(data))
		}
		return failure.Heartbeat{}, nil
	case wireProbe:
		if len(data) != 9 {
			return nil, fmt.Errorf("dag codec: PROBE frame has %d bytes, want 9", len(data))
		}
		return core.Probe{
			Epoch: binary.BigEndian.Uint32(data[1:5]),
			Dead:  mutex.ID(binary.BigEndian.Uint32(data[5:9])),
		}, nil
	case wireProbeAck:
		if len(data) != 15 {
			return nil, fmt.Errorf("dag codec: PROBEACK frame has %d bytes, want 15", len(data))
		}
		return core.ProbeAck{
			Epoch:      binary.BigEndian.Uint32(data[1:5]),
			HasToken:   data[5] != 0,
			Requesting: data[6] != 0,
			Generation: binary.BigEndian.Uint64(data[7:15]),
		}, nil
	case wireReorient:
		if len(data) != 14 {
			return nil, fmt.Errorf("dag codec: REORIENT frame has %d bytes, want 14", len(data))
		}
		return core.Reorient{
			Epoch:  binary.BigEndian.Uint32(data[1:5]),
			Next:   mutex.ID(binary.BigEndian.Uint32(data[5:9])),
			Follow: mutex.ID(binary.BigEndian.Uint32(data[9:13])),
			Token:  data[13] != 0,
		}, nil
	case wireJoin:
		if len(data) != 1 {
			return nil, fmt.Errorf("dag codec: JOIN frame has %d bytes, want 1", len(data))
		}
		return core.Join{}, nil
	case wireInit:
		if len(data) != 1 {
			return nil, fmt.Errorf("dag codec: INITIALIZE frame has %d bytes, want 1", len(data))
		}
		return core.Initialize{}, nil
	case wireWelcome:
		if len(data) != 5 {
			return nil, fmt.Errorf("dag codec: WELCOME frame has %d bytes, want 5", len(data))
		}
		return core.Welcome{Epoch: binary.BigEndian.Uint32(data[1:5])}, nil
	default:
		return nil, fmt.Errorf("dag codec: unknown kind tag %d", data[0])
	}
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
