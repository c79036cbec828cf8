package obs

import (
	"cmp"
	"flag"
	"time"
)

// Stack bundles a daemon's observability plumbing: the metrics registry
// plus the flight recorder's trace and event rings (nil when disabled by
// their ring-size flags; every consumer is nil-safe).
type Stack struct {
	Reg    *Registry
	Tracer *Tracer
	Events *EventRing
}

// StackFlags defines the flight-recorder flags both daemons share on fs
// and returns the constructor to call once fs is parsed: it builds the
// registry, the tracer and the event ring from the flag values and
// registers the runtime-health gauges and the recorder's own accounting
// on the registry.
func StackFlags(fs *flag.FlagSet) func() Stack {
	var (
		traceRing   = fs.Int("trace-ring", 256, "flight-recorder trace ring capacity (0 disables span tracing)")
		traceSlow   = fs.Duration("trace-slow", 500*time.Millisecond, "tail-sampling slow threshold: keep any trace at least this slow (negative disables the slow rule)")
		traceSample = fs.Int("trace-sample", 64, "keep 1-in-N healthy traces as baseline (0 disables)")
		eventRing   = fs.Int("event-ring", 512, "flight-recorder event ring capacity (0 disables events)")
	)
	return func() Stack {
		o := Stack{Reg: NewRegistry()}
		RegisterRuntimeMetrics(o.Reg)
		if *traceRing > 0 {
			o.Tracer = NewTracer(TracerConfig{
				RingSize: *traceRing,
				// A zero Policy field asks for its default; the flag's 0 disables.
				Policy: Policy{Slow: *traceSlow, KeepOneIn: cmp.Or(*traceSample, -1)},
			})
			o.Tracer.RegisterMetrics(o.Reg)
		}
		if *eventRing > 0 {
			o.Events = NewEventRing(*eventRing)
			o.Events.RegisterMetrics(o.Reg)
		}
		return o
	}
}
