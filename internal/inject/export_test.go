package inject

// SnapshotEverything switches the lazy-snapshot rule off until the
// returned restore runs, so external tests can compare lazy campaigns
// with snapshot-everything ones. Not safe alongside parallel tests.
func SnapshotEverything() (restore func()) {
	snapshotEverything.Store(true)
	return func() { snapshotEverything.Store(false) }
}
