// Alloc-count regression guard and benchmarks for the host receive path.
// The guard runs as a plain test so CI catches a reintroduced per-frame
// allocation; race instrumentation perturbs allocation counts, so the file
// is excluded from -race runs.
//
//go:build !race

package stack

import (
	"net/netip"
	"testing"
	"time"

	"iotlan/internal/dnsmsg"
	"iotlan/internal/layers"
	"iotlan/internal/netx"
)

// rxClass is one kind of frame on the host receive path.
type rxClass struct {
	name  string
	frame []byte
}

// rxClasses builds one frame of each class the lab's hosts receive most,
// addressed to a host at 192.168.10.10 that has joined the mDNS and SSDP
// groups and bound their ports. None of them makes the host send.
func rxClasses(tb testing.TB) []rxClass {
	tb.Helper()
	peerMAC := netx.MAC{2, 0, 0, 0, 0, 9}
	peer := netip.AddrFrom4([4]byte{192, 168, 10, 9})
	host := netip.AddrFrom4([4]byte{192, 168, 10, 10})
	udp := func(dst netip.Addr, port uint16, payload []byte) []byte {
		u := &layers.UDP{SrcPort: port, DstPort: port}
		u.SetAddrs(peer, dst)
		frame, err := layers.Serialize(
			&layers.Ethernet{Src: peerMAC, Dst: netx.MulticastMAC(dst), EtherType: layers.EtherTypeIPv4},
			&layers.IPv4{Protocol: layers.IPProtoUDP, Src: peer, Dst: dst},
			u, layers.RawPayload(payload))
		if err != nil {
			tb.Fatal(err)
		}
		return frame
	}
	query := (&dnsmsg.Message{Questions: []dnsmsg.Question{
		{Name: "_googlecast._tcp.local", Type: dnsmsg.TypePTR, Class: dnsmsg.ClassIN},
	}}).Marshal()
	response := (&dnsmsg.Message{Response: true, Authority: true, Answers: []dnsmsg.Record{
		{Name: "_hue._tcp.local", Type: dnsmsg.TypePTR, Class: dnsmsg.ClassIN, TTL: 4500,
			Target: "Philips Hue - 685F61._hue._tcp.local"},
	}}).Marshal()
	notify := []byte("NOTIFY * HTTP/1.1\r\nHOST: 239.255.255.250:1900\r\nNT: upnp:rootdevice\r\n" +
		"NTS: ssdp:alive\r\nUSN: uuid:2f402f80-da50-11e1-9b23-001788685f61::upnp:rootdevice\r\n\r\n")
	msearch := []byte("M-SEARCH * HTTP/1.1\r\nHOST: 239.255.255.250:1900\r\n" +
		"MAN: \"ssdp:discover\"\r\nMX: 2\r\nST: ssdp:all\r\n\r\n")
	arp, err := layers.Serialize(
		&layers.Ethernet{Src: peerMAC, Dst: netx.Broadcast, EtherType: layers.EtherTypeARP},
		&layers.ARP{Op: layers.ARPRequest, SenderHW: peerMAC, SenderIP: peer.As4(),
			TargetIP: [4]byte{192, 168, 10, 77}})
	if err != nil {
		tb.Fatal(err)
	}
	// A stray RST to a port with no connection: decoded, counted, looked
	// up and, being a RST, never answered.
	rst := &layers.TCP{SrcPort: 443, DstPort: 40000, Seq: 1, Flags: layers.TCPRst}
	rst.SetAddrs(peer, host)
	tcp, err := layers.Serialize(
		&layers.Ethernet{Src: peerMAC, Dst: netx.MAC{2, 0, 0, 0, 0, 10}, EtherType: layers.EtherTypeIPv4},
		&layers.IPv4{Protocol: layers.IPProtoTCP, Src: peer, Dst: host},
		rst)
	if err != nil {
		tb.Fatal(err)
	}
	return []rxClass{
		{"mdns-query", udp(netx.MDNSv4Group, 5353, query)},
		{"mdns-response", udp(netx.MDNSv4Group, 5353, response)},
		{"ssdp-notify", udp(netx.SSDPGroup, 1900, notify)},
		{"ssdp-msearch", udp(netx.SSDPGroup, 1900, msearch)},
		{"arp", arp},
		{"tcp", tcp},
	}
}

// rxHost is the receiving host of rxClasses, with silent sockets on the
// discovery ports so datagrams reach socket dispatch.
func rxHost() *Host {
	f := newFixture()
	h := f.host(10)
	h.JoinGroup(netx.MDNSv4Group)
	h.JoinGroup(netx.SSDPGroup)
	h.OpenUDP(5353, nil)
	h.OpenUDP(1900, nil)
	return h
}

// TestHandleFrameAllocatesNothing pins the reused receive packet: once the
// host's tables are warm, receiving any of the common frame classes
// allocates nothing.
func TestHandleFrameAllocatesNothing(t *testing.T) {
	h := rxHost()
	for _, c := range rxClasses(t) {
		h.HandleFrame(c.frame)
		if avg := testing.AllocsPerRun(100, func() { h.HandleFrame(c.frame) }); avg != 0 {
			t.Errorf("%s: HandleFrame = %.2f allocs/op, want 0", c.name, avg)
		}
	}
}

// BenchmarkHostReceive measures the host receive path (decode, address
// filter, dispatch) per frame class, without any protocol handler.
func BenchmarkHostReceive(b *testing.B) {
	for _, c := range rxClasses(b) {
		b.Run(c.name, func(b *testing.B) {
			h := rxHost()
			h.HandleFrame(c.frame)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.HandleFrame(c.frame)
			}
		})
	}
}

// synProbeAllocs is the allocation count of one SYN probe round trip.
const synProbeAllocs = 17

// TestSynProbeAllocs pins the allocations of one SYN probe to a closed port,
// round trip included: the probe conn, the SYN and RST frames and the
// target's throwaway RST conn. The 3 s reaper rides a Runner on the probe
// conn, so it adds no closure and no Timer.
func TestSynProbeAllocs(t *testing.T) {
	f := newFixture()
	a, b := f.host(10), f.host(11)
	closed := 0
	cb := func(open bool) {
		if !open {
			closed++
		}
	}
	probe := func() {
		a.SynProbe(b.IPv4(), 81, cb)
		f.sched.RunFor(5 * time.Second)
	}
	probe() // resolve ARP, warm the event and bucket pools and the conn table
	avg := testing.AllocsPerRun(100, probe)
	t.Logf("SynProbe round trip = %.2f allocs/op", avg)
	if avg > synProbeAllocs {
		t.Fatalf("SynProbe round trip = %.2f allocs/op, want ≤%d", avg, synProbeAllocs)
	}
	if closed != 102 {
		t.Fatalf("%d probes reported closed, want 102", closed)
	}
}
