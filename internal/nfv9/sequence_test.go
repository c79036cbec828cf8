package nfv9

import (
	"testing"

	"cwatrace/internal/netflow"
)

// encodeSeq renders n packets of one record each from a fresh encoder and
// returns them; packet 0 carries the templates.
func encodeSeq(t *testing.T, n int) [][]byte {
	t.Helper()
	enc := NewEncoder(21)
	out := make([][]byte, n)
	for i := range out {
		pkt, err := enc.Encode([]netflow.Record{v4Record(i)}, exportTime)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = pkt
	}
	return out
}

// TestSequenceGapDetection drops a packet mid-stream and asserts the
// decoder's audit reports the gap and the number of lost sequence units —
// the RFC 3954 loss-detection duty of a collector behind lossy UDP export.
func TestSequenceGapDetection(t *testing.T) {
	pkts := encodeSeq(t, 3)
	dec := NewDecoder("")

	if _, err := decodePacket(dec, pkts[0]); err != nil {
		t.Fatal(err)
	}
	if gaps, lost, _ := dec.SequenceStats(); gaps != 0 || lost != 0 {
		t.Fatalf("clean stream reported gaps=%d lost=%d", gaps, lost)
	}

	// Packet 1 goes missing: one gap, one lost export packet.
	if _, err := decodePacket(dec, pkts[2]); err != nil {
		t.Fatal(err)
	}
	gaps, lost, reordered := dec.SequenceStats()
	if gaps != 1 || lost != 1 || reordered != 0 {
		t.Fatalf("after dropping one packet: gaps=%d lost=%d reordered=%d, want 1/1/0", gaps, lost, reordered)
	}
}

// TestSequenceReorderNotCountedAsLoss replays an old packet: the audit
// flags the disorder without inflating the loss counter or corrupting the
// expected next sequence number.
func TestSequenceReorderNotCountedAsLoss(t *testing.T) {
	pkts := encodeSeq(t, 3)
	dec := NewDecoder("")
	for _, i := range []int{0, 1, 2} {
		if _, err := decodePacket(dec, pkts[i]); err != nil {
			t.Fatal(err)
		}
	}
	// A duplicate/late copy of packet 1 arrives after packet 2.
	if _, err := decodePacket(dec, pkts[1]); err != nil {
		t.Fatal(err)
	}
	gaps, lost, reordered := dec.SequenceStats()
	if lost != 0 || reordered != 1 {
		t.Fatalf("reordered replay: gaps=%d lost=%d reordered=%d, want lost=0 reordered=1", gaps, lost, reordered)
	}
	// The stream resumes in order without new gaps.
	enc2 := NewEncoder(21)
	for i := 0; i < 3; i++ {
		if _, err := enc2.Encode([]netflow.Record{v4Record(i)}, exportTime); err != nil {
			t.Fatal(err)
		}
	}
	next, err := enc2.Encode([]netflow.Record{v4Record(3)}, exportTime)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodePacket(dec, next); err != nil {
		t.Fatal(err)
	}
	if newGaps, _, _ := dec.SequenceStats(); newGaps != gaps {
		t.Fatalf("in-order continuation after reorder added gaps: %d -> %d", gaps, newGaps)
	}
}

// TestSequenceTrueReorderCreditsLoss delivers 0,2,1: the forward jump
// charges packet 1 as lost, and its late arrival credits it back — benign
// in-flight reordering must end with net zero loss.
func TestSequenceTrueReorderCreditsLoss(t *testing.T) {
	pkts := encodeSeq(t, 3)
	dec := NewDecoder("")
	for _, i := range []int{0, 2, 1} {
		if _, err := decodePacket(dec, pkts[i]); err != nil {
			t.Fatal(err)
		}
	}
	gaps, lost, reordered := dec.SequenceStats()
	if gaps != 2 || lost != 0 || reordered != 1 {
		t.Fatalf("0,2,1 delivery: gaps=%d lost=%d reordered=%d, want 2/0/1", gaps, lost, reordered)
	}
}

// TestSequenceGapAcrossManyPackets drops a run of packets and checks the
// loss count equals the number of packets that never arrived.
func TestSequenceGapAcrossManyPackets(t *testing.T) {
	pkts := encodeSeq(t, 10)
	dec := NewDecoder("")
	if _, err := decodePacket(dec, pkts[0]); err != nil {
		t.Fatal(err)
	}
	// Packets 1..8 (8 packets x 1 record) vanish.
	if _, err := decodePacket(dec, pkts[9]); err != nil {
		t.Fatal(err)
	}
	gaps, lost, _ := dec.SequenceStats()
	if gaps != 1 || lost != 8 {
		t.Fatalf("gaps=%d lost=%d, want 1/8", gaps, lost)
	}
}
