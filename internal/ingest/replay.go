package ingest

import (
	"fmt"
	"hash/fnv"
	"time"

	"cwatrace/internal/netflow"
	"cwatrace/internal/nfv9"
)

// ReplayConfig drives Replay, the load generator that turns a finished
// trace back into a live NFv9 export stream.
type ReplayConfig struct {
	// Sources is the exporter pool size: records are mapped onto this
	// many NFv9 exporters (own socket, source ID and sequence space) by
	// hashing their router exporter ID (default 4).
	Sources int
	// BatchSize is how many consecutive same-source records are handed to
	// one Export call; the exporter still splits them into MTU-sized
	// datagrams (default 32).
	BatchSize int
	// RecordsPerSecond paces the replay (0 = as fast as possible). The
	// end-to-end tests pace gently so loopback UDP keeps up.
	RecordsPerSecond int
}

func (c ReplayConfig) withDefaults() ReplayConfig {
	if c.Sources <= 0 {
		c.Sources = 4
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	return c
}

// ReplayStats reports what a Replay sent.
type ReplayStats struct {
	Records int
	Batches int
	Sources int
}

// Replay streams records (in slice order, i.e. trace time order) to the
// collector addresses over NFv9/UDP. Exporter pool slot i dials
// addrs[i%len(addrs)], so multi-socket collectors receive a spread of
// sources per socket — the simulator-as-load-generator wiring behind
// `cwasim -export` and the loopback drills that feed a pipeline or a
// running collectord.
func Replay(addrs []string, records []netflow.Record, cfg ReplayConfig) (ReplayStats, error) {
	cfg = cfg.withDefaults()
	var stats ReplayStats
	if len(addrs) == 0 {
		return stats, fmt.Errorf("ingest: replay needs at least one collector address")
	}

	exporters := make([]*nfv9.Exporter, cfg.Sources)
	for i := range exporters {
		exp, err := nfv9.NewExporter(addrs[i%len(addrs)], uint32(i+1))
		if err != nil {
			closeAll(exporters[:i])
			return stats, err
		}
		exporters[i] = exp
	}
	defer closeAll(exporters)
	stats.Sources = cfg.Sources

	// The exporter-ID set is a few hundred fixed router names; memoize the
	// hash so the per-record loop stays allocation-free.
	slots := make(map[string]int)
	slotOf := func(exporter string) int {
		if s, ok := slots[exporter]; ok {
			return s
		}
		h := fnv.New32a()
		h.Write([]byte(exporter))
		s := int(h.Sum32() % uint32(cfg.Sources))
		slots[exporter] = s
		return s
	}

	start := time.Now()
	flush := func(slot int, batch []netflow.Record) error {
		if len(batch) == 0 {
			return nil
		}
		if err := exporters[slot].Export(batch, batch[len(batch)-1].Last); err != nil {
			return err
		}
		stats.Records += len(batch)
		stats.Batches++
		if cfg.RecordsPerSecond > 0 {
			ahead := time.Duration(stats.Records)*time.Second/time.Duration(cfg.RecordsPerSecond) - time.Since(start)
			if ahead > 0 {
				time.Sleep(ahead)
			}
		}
		return nil
	}

	batch := make([]netflow.Record, 0, cfg.BatchSize)
	slot := -1
	for _, r := range records {
		s := slotOf(r.Exporter)
		if s != slot || len(batch) >= cfg.BatchSize {
			if err := flush(slot, batch); err != nil {
				return stats, err
			}
			batch = batch[:0]
			slot = s
		}
		batch = append(batch, r)
	}
	if err := flush(slot, batch); err != nil {
		return stats, err
	}
	return stats, nil
}

func closeAll(exporters []*nfv9.Exporter) {
	for _, e := range exporters {
		if e != nil {
			_ = e.Close()
		}
	}
}
