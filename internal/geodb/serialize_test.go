package geodb

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
)

func TestSidecarRoundTrip(t *testing.T) {
	db, err := Build(model, buildInfos(200), DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != db.Len() {
		t.Fatalf("round trip size %d, want %d", got.Len(), db.Len())
	}
	for _, info := range buildInfos(200) {
		a, okA := db.LocatePrefix(info.Prefix)
		b, okB := got.LocatePrefix(info.Prefix)
		if okA != okB || a != b {
			t.Fatalf("entry mismatch for %s: %+v vs %+v", info.Prefix, a, b)
		}
	}
}

func TestSidecarDeterministicBytes(t *testing.T) {
	db, err := Build(model, buildInfos(50), DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := db.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := db.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("sidecar serialization not deterministic")
	}
}

func TestSidecarReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("{bad json")); err == nil {
		t.Fatal("bad JSON must fail")
	}
	if _, err := Read(strings.NewReader(`{"prefix":"nonsense","district":"X","source":"geoip"}`)); err == nil {
		t.Fatal("bad prefix must fail")
	}
	// A district id is a key of the durable formats downstream, the
	// narrowest of which keeps its length in a byte: 255 bytes pass, one
	// more is refused with its line.
	line := func(id string) string {
		return `{"prefix":"20.0.0.0/24","district":"` + id + `","source":"geoip"}` + "\n"
	}
	if _, err := Read(strings.NewReader(line("BE-000") + line(strings.Repeat("x", 255)))); err != nil {
		t.Fatalf("a 255-byte district id: %v", err)
	}
	if _, err := Read(strings.NewReader(line("BE-000") + line(strings.Repeat("x", 256)))); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("a 256-byte district id on line 1: %v", err)
	}
}

func TestSidecarUnknownSource(t *testing.T) {
	db, err := Read(strings.NewReader(`{"prefix":"20.0.0.0/24","district":"BE-000","source":"weird"}`))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := db.LocatePrefix(netip.MustParsePrefix("20.0.0.0/24"))
	if !ok || e.Source != SourceUnknown {
		t.Fatalf("entry = %+v, ok=%v", e, ok)
	}
}
