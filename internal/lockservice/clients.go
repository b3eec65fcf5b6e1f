package lockservice

import (
	"context"
	"fmt"
	"time"

	"dagmutex/internal/mutex"
	"dagmutex/internal/transport"
)

// This file is the lock service's side of the member/client split: an
// adapter that lets processes which are not DAG members dial a member
// and acquire/release named resources through it (the CLIENT wire
// protocol defined in internal/transport, dialed by internal/client).
// Remote clients ride the member's own slots, so the per-(node, shard)
// one-outstanding-request rule, the lease sweeper and the fencing tokens
// all apply to them exactly as to local callers.

// clientBackend adapts one member's lock-service view to the transport
// layer's ClientBackend surface.
type clientBackend struct {
	c *Client
}

// Acquire implements transport.ClientBackend.
func (b clientBackend) Acquire(ctx context.Context, resource string) (uint64, time.Time, error) {
	h, err := b.c.Acquire(ctx, resource)
	if err != nil {
		return 0, time.Time{}, err
	}
	return h.Fence, h.Expires, nil
}

// AcquireRun implements the transport layer's optional run capability:
// the acquire of a connection with more callers queued for resource.
func (b clientBackend) AcquireRun(ctx context.Context, resource string) (uint64, time.Time, int, error) {
	sh, err := b.c.svc.shardOf(resource)
	if err != nil {
		return 0, time.Time{}, 0, err
	}
	h, run, err := sh.acquireRun(ctx, b.c.id, resource, true)
	return h.Fence, h.Expires, run, err
}

// ReleaseRun ends a run by its last fence, reporting how many of its
// fences were handed out and whether the connection's next acquire
// follows.
func (b clientBackend) ReleaseRun(resource string, last uint64, used int, more bool) error {
	sh, err := b.c.svc.shardOf(resource)
	if err != nil {
		return err
	}
	return sh.releaseRun(b.c.id, resource, last, used, more)
}

// Shards implements transport.RunBackend: two keys of one shard are
// never held at once through a member.
func (b clientBackend) Shards() int { return b.c.svc.Shards() }

// TryAcquire implements transport.ClientBackend.
func (b clientBackend) TryAcquire(resource string) (uint64, time.Time, bool, error) {
	h, ok, err := b.c.TryAcquire(resource)
	if err != nil || !ok {
		return 0, time.Time{}, false, err
	}
	return h.Fence, h.Expires, true, nil
}

// Release implements transport.ClientBackend: fence 0 releases by name,
// anything else releases the exact hold.
func (b clientBackend) Release(resource string, fence uint64) error {
	if fence == 0 {
		return b.c.Release(resource)
	}
	return b.c.ReleaseHold(Hold{Resource: resource, Node: b.c.id, Fence: fence})
}

// ClientBackend returns the surface that serves dialed non-member
// clients through member's slots: hand it to a transport.ClientGateway
// (members over the in-process substrate) or TCPHost.ServeClients
// (members over TCP — or use Service.ServeClients, which wires it).
func (s *Service) ClientBackend(member mutex.ID) (transport.ClientBackend, error) {
	c, err := s.On(member)
	if err != nil {
		return nil, err
	}
	return clientBackend{c: c}, nil
}

// ServeClients opens this process's TCP listener to dialed non-member
// clients, proxied through member's slots (normally the process's own
// member id). It requires the service to run over a TCPTransport.
func (s *Service) ServeClients(member mutex.ID) error {
	return s.ServeClientsWith(member, transport.ClientQueue{})
}

// ServeClientsWith is ServeClients with explicit admission control: q
// bounds each dialed connection's queue depth and, when a rate is set,
// the listener-wide admitted request rate. The zero ClientQueue is the
// ServeClients default.
func (s *Service) ServeClientsWith(member mutex.ID, q transport.ClientQueue) error {
	tcp, ok := s.cfg.Transport.(*TCPTransport)
	if !ok {
		return fmt.Errorf("lockservice: ServeClients needs a TCP transport (got %T); front a local service with a transport.ClientGateway instead", s.cfg.Transport)
	}
	b, err := s.ClientBackend(member)
	if err != nil {
		return err
	}
	tcp.host.ServeClientsWith(b, q)
	return nil
}

// Addr returns this process's listen address when the service runs over
// a TCPTransport ("" otherwise) — what dialed clients and peer members
// connect to.
func (s *Service) Addr() string {
	if tcp, ok := s.cfg.Transport.(*TCPTransport); ok {
		return tcp.Addr()
	}
	return ""
}

// Connect supplies the member address book when the service runs over a
// TCPTransport; it must be called before the first Acquire. Over other
// transports it is a no-op error.
func (s *Service) Connect(addrs map[mutex.ID]string) error {
	tcp, ok := s.cfg.Transport.(*TCPTransport)
	if !ok {
		return fmt.Errorf("lockservice: Connect needs a TCP transport (got %T)", s.cfg.Transport)
	}
	tcp.Connect(addrs)
	return nil
}
