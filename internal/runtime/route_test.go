package runtime

import (
	"errors"
	"testing"

	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
)

// valueLink is chanLink plus the by-value send capability.
type valueLink struct {
	*chanLink
	vals []core.Msg
}

func (l *valueLink) SendMsg(to mutex.ID, m core.Msg) error {
	if l.sendErr != nil {
		return l.sendErr
	}
	l.vals = append(l.vals, m)
	return nil
}

func twoNodes(holder mutex.ID) mutex.Config {
	cfg := mutex.Config{IDs: []mutex.ID{1, 2}, Holder: holder, Parent: map[mutex.ID]mutex.ID{}}
	cfg.Parent[3-holder] = holder
	return cfg
}

// TestEnvRoutesByLinkCapability: the capability is probed once at Start.
// Over a link with SendMsg a core node's REQUEST leaves by value; over a
// link without it the same REQUEST is boxed into Send at that last
// moment, as a core.Request value.
func TestEnvRoutesByLinkCapability(t *testing.T) {
	want := core.Request{From: 2, Origin: 2}

	plain := newChanLink()
	n, err := Start(2, core.Builder, twoNodes(1), plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Session().AcquireAsync(); err != nil {
		t.Fatal(err)
	}
	n.Close()
	if len(plain.sent) != 1 || plain.sent[0].to != 1 || plain.sent[0].m != mutex.Message(want) {
		t.Fatalf("plain link was sent %+v, want one boxed %+v to node 1", plain.sent, want)
	}

	byValue := &valueLink{chanLink: newChanLink()}
	n, err = Start(2, core.Builder, twoNodes(1), byValue, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Session().AcquireAsync(); err != nil {
		t.Fatal(err)
	}
	n.Close()
	if len(byValue.sent) != 0 || len(byValue.vals) != 1 || byValue.vals[0] != core.RequestMsg(want) {
		t.Fatalf("by-value link got %d boxed sends and %+v by value, want only %+v by value",
			len(byValue.sent), byValue.vals, core.RequestMsg(want))
	}

	// A synchronous by-value send failure reaches the sink like a boxed one.
	failing := &valueLink{chanLink: newChanLink()}
	failing.sendErr = errors.New("link down")
	n, err = Start(2, core.Builder, twoNodes(1), failing, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = n.Session().AcquireAsync()
	n.Close()
	if err := n.Err(); err == nil || !errors.Is(err, failing.sendErr) {
		t.Fatalf("sink holds %v, want the by-value send failure", err)
	}
}

// valueSeer is a protocol stub that records the dynamic type of what its
// Deliver is handed; it has no by-value method.
type valueSeer struct {
	echoNode
	got []mutex.Message
}

func (n *valueSeer) Deliver(_ mutex.ID, m mutex.Message) error {
	n.got = append(n.got, m)
	return nil
}

// TestDeliverEnvelopeRoutesByNodeCapability: a by-value envelope reaches
// a core node through DeliverMsg, and a node without that method through
// Deliver, boxed on arrival into the core value type. An envelope with
// neither a message nor a kind is the node's to refuse, not a panic.
func TestDeliverEnvelopeRoutesByNodeCapability(t *testing.T) {
	token := core.Privilege{Generation: 41}

	n, err := Start(2, core.Builder, twoNodes(1), newChanLink(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Session().AcquireAsync(); err != nil {
		t.Fatal(err)
	}
	n.DeliverEnvelope(Envelope{From: 1, Val: core.PrivilegeMsg(token)})
	select {
	case g := <-n.Session().Granted():
		if g.Generation != 42 {
			t.Fatalf("granted generation %d, want 42", g.Generation)
		}
	default:
		t.Fatal("the by-value PRIVILEGE did not grant")
	}
	n.DeliverEnvelope(Envelope{From: 1})
	n.Close()
	if err := n.Err(); !errors.Is(err, mutex.ErrUnexpectedMessage) {
		t.Fatalf("empty envelope: sink holds %v, want ErrUnexpectedMessage", err)
	}

	seer := &valueSeer{}
	n, err = Start(2, func(mutex.ID, mutex.Env, mutex.Config) (mutex.Node, error) { return seer, nil },
		mutex.Config{}, newChanLink(), nil)
	if err != nil {
		t.Fatal(err)
	}
	n.DeliverEnvelope(Envelope{From: 1, Val: core.PrivilegeMsg(token)})
	n.DeliverEnvelope(Envelope{From: 1, Msg: ping{seq: 1}})
	n.Close()
	if len(seer.got) != 2 || seer.got[0] != mutex.Message(token) || seer.got[1] != mutex.Message(ping{seq: 1}) {
		t.Fatalf("node without the by-value method was handed %#v", seer.got)
	}
}
