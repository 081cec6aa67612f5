package mdns

import (
	"net/netip"
	"testing"
	"time"

	"iotlan/internal/dnsmsg"
	"iotlan/internal/lan"
	"iotlan/internal/layers"
	"iotlan/internal/netx"
	"iotlan/internal/sim"
	"iotlan/internal/stack"
)

// FuzzDecode is a conformance harness, not a bare parser check: the fuzz
// payload is wrapped in a real UDP/IPv4/Ethernet frame to port 5353 and fed
// through a live Responder's full receive path (host dispatch, group
// filtering, query handling, response generation). Nothing on that path may
// panic or hang, whatever the payload. It also checks that the responder's
// early exit is exact: every payload isQuery rejects is one dnsmsg.Unmarshal
// fails on or reads as a response.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 5, '_', 'h', 'u', 'e', 0, 0, 12, 0, 1})
	ptr := dnsmsg.Question{Name: "_hue._tcp.local", Type: dnsmsg.TypePTR, Class: dnsmsg.ClassIN}
	f.Add((&dnsmsg.Message{Questions: []dnsmsg.Question{ptr}}).Marshal())
	f.Add((&dnsmsg.Message{Response: true, Authority: true, Answers: []dnsmsg.Record{{
		Name: ptr.Name, Type: dnsmsg.TypePTR, Class: dnsmsg.ClassIN, TTL: 4500,
		Target: "Philips Hue - 685F61._hue._tcp.local",
	}}}).Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		if !isQuery(data) {
			if m, err := dnsmsg.Unmarshal(data); err == nil && !m.Response {
				t.Fatalf("isQuery drops a payload that unmarshals to a query: %+v", m)
			}
		}
		sched := sim.NewScheduler(1)
		network := lan.New(sched)
		host := stack.NewHost(network, netx.MAC{2, 0, 0, 0, 0, 1}, stack.DefaultPolicy)
		host.SetIPv4(netip.MustParseAddr("192.168.10.5"))
		r := &Responder{
			Host:          host,
			Hostname:      "fuzz-target.local",
			Services:      []Service{{Instance: "Fuzz", Type: "_hue._tcp.local", Port: 80, TXT: []string{"md=fuzz"}}},
			AnswerUnicast: true,
		}
		r.Start()

		src := netip.MustParseAddr("192.168.10.9")
		udp := &layers.UDP{SrcPort: 5353, DstPort: Port}
		udp.SetAddrs(src, netx.MDNSv4Group)
		frame, err := layers.Serialize(
			&layers.Ethernet{
				Src:       netx.MAC{2, 0, 0, 0, 0, 9},
				Dst:       netx.MulticastMAC(netx.MDNSv4Group),
				EtherType: layers.EtherTypeIPv4,
			},
			&layers.IPv4{Protocol: layers.IPProtoUDP, Src: src, Dst: netx.MDNSv4Group},
			udp,
			layers.RawPayload(data))
		if err != nil {
			return // payload too large to frame
		}
		host.HandleFrame(frame)
		sched.RunFor(time.Second) // flush any scheduled response work
	})
}
