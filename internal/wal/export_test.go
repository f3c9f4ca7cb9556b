package wal

// SnapshotMagic exposes the snapshot header's leading bytes to the
// external tests.
const SnapshotMagic = snapshotMagic
