package ssdp

import "testing"

// FuzzDecode asserts the SSDP/HTTPU parser and the UPnP description-XML
// parser are total over arbitrary bytes, and that the responder's early
// exit is exact: every payload Parse reads as an M-SEARCH passes
// mayBeSearch.
func FuzzDecode(f *testing.F) {
	f.Add([]byte("M-SEARCH * HTTP/1.1\r\nHOST: 239.255.255.250:1900\r\nST: ssdp:all\r\n\r\n"))
	f.Add([]byte(" \t\u00a0M-SEARCH * HTTP/1.1\r\n\r\n"))
	f.Add([]byte("NOTIFY * HTTP/1.1\r\nNT: upnp:rootdevice\r\nNTS: ssdp:alive\r\n\r\n"))
	f.Add([]byte("<root><device><friendlyName>x</friendlyName></device></root>"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := Parse(data); err == nil {
			if m.Kind == "M-SEARCH" && !mayBeSearch(data) {
				t.Fatalf("mayBeSearch drops a payload Parse reads as an M-SEARCH: %q", data)
			}
			_ = m.Location()
			_ = m.Header("SERVER")
			_ = m.Header("USN")
		}
		if d, err := ParseDevice(data); err == nil {
			_ = d.FriendlyName
			_ = len(d.Services)
		}
	})
}
