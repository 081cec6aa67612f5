package mdns

import (
	"net/netip"
	"testing"
	"time"

	"iotlan/internal/dnsmsg"
	"iotlan/internal/netx"
	"iotlan/internal/stack"
)

// BenchmarkResponder measures the responder's datagram handler per kind of
// payload reaching port 5353: another device's announcement (the bulk of
// lab traffic), a query for a service it does not offer, and one it
// answers (the multicast reply is flushed through the LAN every iteration).
func BenchmarkResponder(b *testing.B) {
	query := func(name string) []byte {
		return (&dnsmsg.Message{Questions: []dnsmsg.Question{
			{Name: name, Type: dnsmsg.TypePTR, Class: dnsmsg.ClassIN},
		}}).Marshal()
	}
	const instance = "Google-Home-1a2b._googlecast._tcp.local"
	announce := &dnsmsg.Message{Response: true, Authority: true,
		Answers: []dnsmsg.Record{{Name: "_googlecast._tcp.local", Type: dnsmsg.TypePTR,
			Class: dnsmsg.ClassIN, TTL: 4500, Target: instance}},
		Extra: []dnsmsg.Record{{Name: instance, Type: dnsmsg.TypeTXT,
			Class: dnsmsg.ClassIN, TTL: 4500, TXT: []string{"id=1a2b3c4d", "md=Google Home"}}},
	}
	for _, c := range []struct {
		name    string
		payload []byte
	}{
		{"response", announce.Marshal()},
		{"query-miss", query("_googlecast._tcp.local")},
		{"query-hit", query("_hue._tcp.local")},
	} {
		b.Run(c.name, func(b *testing.B) {
			e := newEnv()
			r := hueResponder(e.host(23))
			e.sched.RunFor(time.Second)
			dg := stack.Datagram{
				Src: netip.AddrFrom4([4]byte{192, 168, 10, 50}), SrcPort: Port,
				Dst: netx.MDNSv4Group, DstPort: Port, Payload: c.payload,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.onDatagram(dg)
				e.sched.RunFor(time.Millisecond)
			}
		})
	}
}
