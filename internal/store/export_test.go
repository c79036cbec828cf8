package store

// What the tests of package store_test, which serve a store through
// internal/api (an import the package's own tests cannot make), borrow
// from the inside.

var (
	KeptRecord    = keptRecord
	DroppedRecord = droppedRecord
)

// EmptyFrameCache drops every decoded frame and merged run, so the next
// read decodes the frame files again.
func (s *Store) EmptyFrameCache() { s.frameCache.retain(func(runKey) bool { return false }) }
