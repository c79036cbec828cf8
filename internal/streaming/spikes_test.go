package streaming

import (
	"math"
	"math/rand"
	"testing"
)

// detectSpikesBySumming is the detector as it was written first: every
// hour's baseline added up from its own history. It is the reference the
// running sum is held to.
func detectSpikesBySumming(hours []HourPoint, cfg Config) []Spike {
	var out []Spike
	for i := range hours {
		if i < cfg.spike.history {
			continue
		}
		var sum float64
		for j := i - cfg.spike.history; j < i; j++ {
			sum += hours[j].Flows
		}
		baseline := sum / float64(cfg.spike.history)
		if baseline <= 0 || hours[i].Flows < cfg.spike.minFlows {
			continue
		}
		if ratio := hours[i].Flows / baseline; ratio >= cfg.spike.factor {
			out = append(out, Spike{Hour: hours[i].Hour, Time: hours[i].Time, Flows: hours[i].Flows, Baseline: baseline, Ratio: ratio})
		}
	}
	return out
}

// TestSpikesMatchSummedBaselines is the property the running sum rests
// on: over series of whole counts — and of fractions, negatives, counts
// near and beyond 2^53, NaN and both infinities, alone and mixed — it
// reports the spikes of the summing detector with bit-equal Baseline and
// Ratio, at any history length, floor and factor.
func TestSpikesMatchSummedBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	kinds := []func() float64{
		func() float64 { return float64(rng.Intn(5000)) },
		func() float64 { return 0 },
		func() float64 { return float64(rng.Intn(40)) * 1000 },
		func() float64 { return rng.Float64() * 300 },
		func() float64 { return -float64(rng.Intn(5000)) },
		func() float64 { return math.Copysign(0, -1) },
		func() float64 { return float64(uint64(1)<<52 + uint64(rng.Intn(1<<20))) },
		func() float64 { return -float64(uint64(1)<<53 - uint64(rng.Intn(3))) },
		func() float64 { return math.Ldexp(1+rng.Float64(), 60+rng.Intn(900)) },
		func() float64 { return math.NaN() },
		func() float64 { return math.Inf(1) },
		func() float64 { return math.Inf(-1) },
	}
	histories := []int{-1, 0, 1, 2, 3, 24, 168}
	floors := []float64{0, 1, 50, -10, math.NaN(), math.Inf(1)}
	factors := []float64{0, 0.5, 1, 3, math.NaN()}
	spikes := 0
	for round := 0; round < 3000; round++ {
		// Mostly the first kinds (a real series), with a few of the
		// others thrown in: both the running and the summed path run, and
		// runs enter and leave each other.
		plainKinds, odd := 1+rng.Intn(3), rng.Intn(len(kinds))
		oddShare := []float64{0, 0.01, 0.1, 1}[rng.Intn(4)]
		hours := make([]HourPoint, rng.Intn(400))
		for i := range hours {
			kind := kinds[rng.Intn(plainKinds)]
			if rng.Float64() < oddShare {
				kind = kinds[odd]
			}
			hours[i] = HourPoint{Hour: 1000 + i, Flows: kind()}
		}
		cfg := Config{spike: spikeParams{
			history:  histories[rng.Intn(len(histories))],
			minFlows: floors[rng.Intn(len(floors))],
			factor:   factors[rng.Intn(len(factors))],
		}}
		got, want := detectSpikes(hours, cfg), detectSpikesBySumming(hours, cfg)
		if len(got) != len(want) {
			t.Fatalf("round %d (%+v): %d spikes, want %d", round, cfg, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Hour != w.Hour || math.Float64bits(g.Flows) != math.Float64bits(w.Flows) ||
				math.Float64bits(g.Baseline) != math.Float64bits(w.Baseline) ||
				math.Float64bits(g.Ratio) != math.Float64bits(w.Ratio) {
				t.Fatalf("round %d (%+v) spike %d: got %+v, want %+v", round, cfg, i, g, w)
			}
		}
		spikes += len(want)
	}
	if spikes < 1000 {
		t.Fatalf("only %d spikes in all rounds: the series do not exercise the detector", spikes)
	}
}
