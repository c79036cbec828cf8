//go:build race

package api

// raceEnabled reports a -race build, whose allocator instrumentation
// makes byte-count assertions meaningless.
const raceEnabled = true
