package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"cwatrace/internal/netflow"
	"cwatrace/internal/nfv9"
)

const (
	genSources = 4 // UDP sockets, one NFv9 source each
	// templateEvery resends the templates so a lost first datagram
	// cannot poison a source's decoder for the rest of the run.
	templateEvery = 64
	// window is the closed loop's cap on unacknowledged records. The
	// reader deals datagrams round-robin onto two lanes of 256 batches and
	// drops what a full lane cannot take, so a stalled lane may end up
	// holding the whole window: it must fit one lane. One datagram short
	// of that, because the last datagram of a pass is a short one and the
	// window counts records, not datagrams.
	window = 255 * maxPerPacket
	// ackStall is how long an idle collector (nothing queued, nothing
	// newly processed) may leave records unacknowledged before they are
	// written off as lost below its counters (socket-buffer overflow).
	ackStall = 500 * time.Millisecond
)

// hourMark tells the visibility probe that the first kept record of a
// simulated hour has left the sender.
type hourMark struct {
	hour time.Time // start of the simulated hour
	at   time.Time // when its first datagram was due (open loop) or sent
}

// sentMark is one datagram's position in the acknowledged-record count.
type sentMark struct {
	cum uint64 // records sent up to and including this datagram
	at  time.Time
}

// generator replays the trace over loopback UDP, in time order, shifting
// every pass by one study window so simulated time only moves forward.
// It is one goroutine: ingest.Replay and nfv9.Exporter top out near what
// the pipeline absorbs, so they cannot be the load source.
type generator struct {
	in    *inputs
	conns []*net.UDPConn
	encs  []*nfv9.Encoder
	base  time.Duration // shift of pass 0 relative to the trace's own time

	// acked is the collector's processed+dropped count and writtenOff
	// what it will never acknowledge, both published by the ack poller;
	// sent is published for it in return.
	acked      atomic.Uint64
	writtenOff atomic.Uint64
	sent       atomic.Uint64
	// measuring gates the sampled statistics: off during warm-up.
	measuring atomic.Bool

	marks chan sentMark // sampled datagrams awaiting acknowledgement
	hours chan hourMark // nil when no probe listens

	// Everything below belongs to the sender goroutine until run returns.
	pos      int // next trace index
	pass     int
	packets  uint64
	lastHour int64
	blocked  time.Duration // time spent waiting on the window
	lateMS   []float64     // open loop: how late each datagram left
}

func newGenerator(in *inputs, addr string, base time.Duration) (*generator, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	g := &generator{
		in: in, base: base, lastHour: -1,
		// One mark per 8 datagrams of a full window, with headroom.
		marks: make(chan sentMark, window),
	}
	for i := 0; i < genSources; i++ {
		c, err := net.DialUDP("udp", nil, ua)
		if err != nil {
			g.close()
			return nil, err
		}
		g.conns = append(g.conns, c)
		g.encs = append(g.encs, nfv9.NewEncoder(uint32(i+1)))
	}
	return g, nil
}

func (g *generator) close() {
	for _, c := range g.conns {
		c.Close()
	}
}

// next fills buf with the next datagram's records (shifted into the
// current pass) and reports the first kept record's simulated hour when
// the datagram opens a new one.
func (g *generator) next(buf []netflow.Record) ([]netflow.Record, time.Time, bool) {
	buf = buf[:0]
	shift := g.base + time.Duration(g.pass)*passDuration
	var newHour time.Time
	opened := false
	for len(buf) < maxPerPacket && g.pos < len(g.in.trace) {
		r := shifted(g.in.trace[g.pos], shift)
		if g.in.kept[g.pos] {
			if h := r.First.Unix() / 3600; h > g.lastHour {
				g.lastHour = h
				if !opened {
					newHour, opened = time.Unix(h*3600, 0).UTC(), true
				}
			}
		}
		buf = append(buf, r)
		g.pos++
	}
	if g.pos == len(g.in.trace) {
		g.pos, g.pass = 0, g.pass+1
	}
	return buf, newHour, opened
}

// send encodes and writes one datagram and does the bookkeeping.
func (g *generator) send(recs []netflow.Record, now time.Time) error {
	src := int(g.packets % genSources)
	if (g.packets/genSources)%templateEvery == 0 {
		g.encs[src].Reset()
	}
	pkt, err := g.encs[src].Encode(recs, now)
	if err != nil {
		return err
	}
	if _, err := g.conns[src].Write(pkt); err != nil {
		return fmt.Errorf("sending datagram: %w", err)
	}
	g.packets++
	return nil
}

// runClosed sends until stop closes, never keeping more than window
// records unacknowledged.
func (g *generator) runClosed(stop <-chan struct{}) error {
	buf := make([]netflow.Record, 0, maxPerPacket)
	var sent uint64
	full := func(n int) bool {
		return sent+uint64(n) > g.acked.Load()+g.writtenOff.Load()+window
	}
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		recs, hour, opened := g.next(buf)
		// Wait for room in the window.
		if full(len(recs)) {
			t0 := time.Now()
			for full(len(recs)) {
				select {
				case <-stop:
					return nil
				default:
				}
				time.Sleep(50 * time.Microsecond)
			}
			if g.measuring.Load() {
				g.blocked += time.Since(t0)
			}
		}
		now := time.Now()
		if err := g.send(recs, now); err != nil {
			return err
		}
		sent += uint64(len(recs))
		g.sent.Store(sent)
		g.note(sent, now, hour, opened)
	}
}

// schedule is an open loop's timetable, fixed before the first send.
type schedule struct {
	start time.Time
	rate  float64 // records per second
}

// due is when the datagram that follows sent records is to leave.
func (s schedule) due(sent uint64) time.Time {
	return s.start.Add(time.Duration(float64(sent) / s.rate * float64(time.Second)))
}

// runOpen sends at a fixed records/s on a schedule fixed in advance:
// each datagram is timed from when it was due, so a stall charges the
// wait to every datagram it delays.
func (g *generator) runOpen(stop <-chan struct{}, rate float64) error {
	buf := make([]netflow.Record, 0, maxPerPacket)
	sched := schedule{time.Now(), rate}
	var sent uint64
	for {
		recs, hour, opened := g.next(buf)
		due := sched.due(sent)
		for {
			select {
			case <-stop:
				return nil
			default:
			}
			wait := time.Until(due)
			if wait <= 0 {
				break
			}
			// Sleep coarsely, then yield through the last stretch: the
			// runtime's sleep overshoots by more than a datagram slot.
			if wait > 200*time.Microsecond {
				time.Sleep(wait - 100*time.Microsecond)
			} else {
				time.Sleep(10 * time.Microsecond)
			}
		}
		now := time.Now()
		if err := g.send(recs, now); err != nil {
			return err
		}
		sent += uint64(len(recs))
		g.sent.Store(sent)
		if g.measuring.Load() {
			g.lateMS = append(g.lateMS, ms(now.Sub(due)))
		}
		g.note(sent, due, hour, opened)
	}
}

// note publishes the sampled acknowledgement mark and the hour mark,
// never blocking the sender: a full channel just skips the sample.
func (g *generator) note(sent uint64, at time.Time, hour time.Time, opened bool) {
	if g.packets%8 == 0 {
		select {
		case g.marks <- sentMark{sent, at}:
		default:
		}
	}
	if opened && g.hours != nil {
		select {
		case g.hours <- hourMark{hour, at}:
		default:
		}
	}
}
