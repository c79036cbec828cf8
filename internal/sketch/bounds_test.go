package sketch_test

import (
	"testing"

	"cwatrace/internal/sketch"
	"cwatrace/internal/streaming"
)

// TestQuantileBoundsCoverMaxWindow pins the bucket layout's reach to
// the real streaming plausibility cap, which the layout mirrors as a
// literal to avoid the import the other way. The test lives outside the
// package because streaming imports sketch (its prefix table caches the
// HLL hash).
func TestQuantileBoundsCoverMaxWindow(t *testing.T) {
	if top := sketch.QuantileTopBound; top < uint64(streaming.MaxWindowHours) {
		t.Fatalf("quantile top bound %d does not cover MaxWindowHours %d", top, streaming.MaxWindowHours)
	}
}
