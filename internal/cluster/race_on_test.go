//go:build race

package cluster

// raceEnabled reports a -race build, whose allocator instrumentation
// makes byte-count assertions meaningless.
const raceEnabled = true
