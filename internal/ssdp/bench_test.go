package ssdp

import (
	"net/netip"
	"testing"
	"time"

	"iotlan/internal/lan"
	"iotlan/internal/netx"
	"iotlan/internal/sim"
	"iotlan/internal/stack"
)

// BenchmarkResponder measures the responder's datagram handler per kind of
// payload reaching port 1900: another device's NOTIFY (the bulk of lab
// traffic), an M-SEARCH for a target it does not advertise, and one it
// answers (the unicast reply is delivered to the searcher every iteration).
func BenchmarkResponder(b *testing.B) {
	other := Advertisement{
		UUID:     "2f402f80-da50-11e1-9b23-001788685f61",
		Target:   TargetBasic,
		Location: "http://192.168.10.23:80/description.xml",
		Server:   "Linux/3.14 UPnP/1.0 IpBridge/1.56.0",
	}
	for _, c := range []struct {
		name    string
		payload []byte
	}{
		{"notify", other.Notify()},
		{"msearch-miss", MSearch(TargetIGD, 2)},
		{"msearch-hit", MSearch(TargetDial, 2)},
	} {
		b.Run(c.name, func(b *testing.B) {
			sched := sim.NewScheduler(1)
			network := lan.New(sched)
			mk := func(last byte) *stack.Host {
				h := stack.NewHost(network, netx.MAC{2, 0, 0, 0, 0, last}, stack.DefaultPolicy)
				h.SetIPv4(netip.AddrFrom4([4]byte{192, 168, 10, last}))
				return h
			}
			r := &Responder{Host: mk(30), Ads: []Advertisement{{
				UUID:     "roku-uuid-1234",
				Target:   TargetDial,
				Location: "http://192.168.10.30:8060/dial/dd.xml",
				Server:   "Roku/9.0 UPnP/1.0",
			}}}
			r.Start()
			phone := mk(50)
			phone.OpenUDP(40000, nil)
			dg := stack.Datagram{
				Src: phone.IPv4(), SrcPort: 40000,
				Dst: netx.SSDPGroup, DstPort: Port, Payload: c.payload,
			}
			// Warm up: the first answer resolves the searcher's MAC.
			r.onDatagram(dg)
			sched.RunFor(time.Second)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.onDatagram(dg)
				sched.RunFor(time.Millisecond)
			}
		})
	}
}
